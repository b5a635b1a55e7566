"""Tests for the aggregate DramDescription and its path helpers."""

import pytest

from repro.errors import DescriptionError
from repro.devices import build_device


class TestDerivedOrganisation:
    def test_ddr3_organisation(self, ddr3_device):
        # 2 Gb x16: 16 kb page over 512-bit sub-wordlines → 32 SWLs rise.
        assert ddr3_device.swls_per_activate == 32
        # 128-bit access over 16-bit CSL groups → 8 CSLs assert.
        assert ddr3_device.csls_per_access == 8
        assert ddr3_device.blocks_per_bank == 1
        assert ddr3_device.page_bits_per_block == 16384

    def test_sdr_page_splits_over_two_blocks(self, sdr_device):
        # 4 banks on the 8-block floorplan: each page spans two blocks.
        assert sdr_device.blocks_per_bank == 2
        assert (sdr_device.page_bits_per_block * 2
                == sdr_device.spec.page_bits)

    def test_ddr5_banks_stack_in_blocks(self, ddr5_device):
        # 32 banks on 8 blocks: four banks per block.
        assert ddr5_device.banks_per_array_block == 4.0
        assert ddr5_device.blocks_per_bank == 1

    def test_density_label(self, ddr3_device, sdr_device):
        assert ddr3_device.density_label == "2G"
        assert sdr_device.density_label == "128M"

    def test_summary_keys(self, ddr3_device):
        summary = ddr3_device.summary()
        assert summary["density"] == "2G"
        assert summary["banks"] == 8
        assert summary["datarate_gbps"] == pytest.approx(1.6)


class TestCrossValidation:
    def test_access_must_fit_page(self, ddr3_device):
        # Shrinking the page below one access must fail validation.
        with pytest.raises(DescriptionError):
            ddr3_device.replace_path("spec.col_bits", 2)

    def test_page_must_align_to_swl(self, ddr3_device):
        with pytest.raises(DescriptionError):
            ddr3_device.replace_path("floorplan.array.bits_per_swl", 4096
                                     * 16)

    def test_access_must_align_to_csl(self, ddr3_device):
        with pytest.raises(DescriptionError):
            ddr3_device.replace_path("technology.bits_per_csl", 48)

    def test_duplicate_logic_names_rejected(self, ddr3_device):
        blocks = ddr3_device.logic_blocks
        with pytest.raises(DescriptionError):
            ddr3_device.evolve(logic_blocks=blocks + (blocks[0],))


class TestPathHelpers:
    def test_get_path(self, ddr3_device):
        assert ddr3_device.get_path("voltages.vint") == pytest.approx(1.4)
        assert ddr3_device.get_path("technology.c_cell") > 0

    def test_replace_path_voltages(self, ddr3_device):
        modified = ddr3_device.replace_path("voltages.vint", 1.2)
        assert modified.voltages.vint == 1.2
        assert ddr3_device.voltages.vint == pytest.approx(1.4)

    def test_replace_path_technology(self, ddr3_device):
        modified = ddr3_device.replace_path("technology.c_bitline", 50e-15)
        assert modified.technology.c_bitline == pytest.approx(50e-15)

    def test_replace_path_floorplan_array(self, ddr3_device):
        modified = ddr3_device.replace_path(
            "floorplan.array.bits_per_swl", 256
        )
        assert modified.floorplan.array.bits_per_swl == 256

    def test_replace_path_top_level(self, ddr3_device):
        modified = ddr3_device.replace_path("constant_current", 1e-3)
        assert modified.constant_current == pytest.approx(1e-3)

    def test_replace_unknown_root_rejected(self, ddr3_device):
        with pytest.raises(DescriptionError):
            ddr3_device.replace_path("nonsense.vint", 1.0)

    def test_scale_path_float(self, ddr3_device):
        modified = ddr3_device.scale_path("technology.c_bitline", 1.2)
        assert modified.technology.c_bitline == pytest.approx(
            1.2 * ddr3_device.technology.c_bitline
        )

    def test_scale_path_int_rounds(self, ddr3_device):
        modified = ddr3_device.scale_path("spec.io_width", 0.5)
        assert modified.spec.io_width == 8

    def test_scale_path_rejects_non_numeric(self, ddr3_device):
        with pytest.raises(DescriptionError):
            ddr3_device.scale_path("name", 2.0)

    @pytest.mark.parametrize("path, error, message", [
        ("floorplan.array", DescriptionError,
         "unsupported floorplan parameter path 'floorplan.array'"),
        ("floorplan.horizontal.x", DescriptionError,
         "unsupported floorplan parameter path 'floorplan.horizontal.x'"),
        ("technology.a.b", DescriptionError,
         "unsupported parameter path 'technology.a.b'"),
        ("nonsense.vint", DescriptionError,
         "unknown parameter root 'nonsense'"),
        ("technology.nope", TypeError,
         "TechnologyParameters.__init__() got an unexpected keyword "
         "argument 'nope'"),
        ("nope", TypeError,
         "DramDescription.__init__() got an unexpected keyword "
         "argument 'nope'"),
        ("floorplan.array.nope", TypeError,
         "ArrayArchitecture.__init__() got an unexpected keyword "
         "argument 'nope'"),
        ("voltages.vint", DescriptionError,
         "vint (9.0 V) cannot exceed vdd (1.5 V)"),
    ])
    def test_replace_path_errors(self, ddr3_device, path, error, message):
        with pytest.raises(error) as raised:
            ddr3_device.replace_path(path, 9.0)
        assert str(raised.value) == message

    def test_replace_paths_equals_the_chain(self, ddr3_device):
        values = {"technology.c_bitline": 50e-15, "voltages.vint": 1.2,
                  "spec.col_bits": 11, "timing.trc": 55e-9,
                  "floorplan.array.bits_per_swl": 256,
                  "floorplan.array.bl_pitch": 1.2e-7,
                  "technology.c_cell": 20e-15, "constant_current": 1e-3}
        chained = ddr3_device
        for path, value in values.items():
            chained = chained.replace_path(path, value)
        assert ddr3_device.replace_paths(values) == chained
        assert ddr3_device.replace_paths({}) == ddr3_device

    def test_replace_paths_validates_the_result_only(self, ddr3_device):
        # vint above the old vdd is fine once vdd rises with it.
        raised = ddr3_device.replace_paths({"voltages.vint": 1.6,
                                            "voltages.vdd": 1.7})
        assert (raised.voltages.vint, raised.voltages.vdd) == (1.6, 1.7)

    @pytest.mark.parametrize("values", [
        {"technology": None, "technology.c_cell": 20e-15},
        {"floorplan.array.bits_per_swl": 256, "floorplan": None},
    ])
    def test_replace_paths_rejects_overlapping_paths(self, ddr3_device,
                                                     values):
        with pytest.raises(DescriptionError, match="both whole and by "
                                                   "path"):
            ddr3_device.replace_paths(values)

    def test_logic_block_lookup(self, ddr3_device):
        assert ddr3_device.logic_block("control").name == "control"
        with pytest.raises(KeyError):
            ddr3_device.logic_block("nonexistent")


class TestBuilderConsistency:
    def test_density_matches_request(self):
        device = build_device(65, interface="DDR3", density_bits=1 << 30,
                              io_width=8, datarate=1066e6)
        assert device.spec.density_bits == 1 << 30
        assert device.spec.io_width == 8

    def test_name_autogeneration(self):
        device = build_device(55)
        assert "DDR3" in device.name
        assert "55nm" in device.name
