"""Client resilience: backoff, Retry-After, deadlines, breaker."""

import random
import threading

import pytest

from repro.client import (NO_RETRY, CircuitBreaker, RetryPolicy,
                          ServiceClient)
from repro.errors import CircuitOpenError, ServiceError
from repro.service import (FaultInjector, FaultRule, ServiceLimits,
                           create_service)


#: serve_forever() poll interval: shutdown() waits up to one poll.
POLL_INTERVAL = 0.01


class FakeClock:
    """A controllable monotonic clock; sleeping advances it."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class FakeTransport:
    """Scripted `_request_once` replacement: a list of outcomes."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, method, path, payload, request_timeout,
                 expires):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _client(outcomes, retry=None, breaker=None, deadline=None):
    clock = FakeClock()
    client = ServiceClient("http://test", retry=retry,
                           breaker=breaker, deadline=deadline,
                           sleep=clock.sleep, clock=clock,
                           rng=random.Random(0))
    transport = FakeTransport(outcomes)
    client._request_once = transport
    return client, transport, clock


def _shed(status, retry_after=None):
    return ServiceError(f"shed {status}", status=status,
                        retry_after=retry_after)


class TestRetryPolicy:
    def test_retryable_statuses_and_connection_errors(self):
        policy = RetryPolicy()
        assert policy.is_retryable(_shed(429))
        assert policy.is_retryable(_shed(503))
        assert policy.is_retryable(ServiceError("down", status=0))
        assert not policy.is_retryable(_shed(400))
        assert not policy.is_retryable(_shed(500))

    def test_backoff_within_full_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=2.0,
                             multiplier=2.0)
        rng = random.Random(7)
        for attempt in range(1, 8):
            cap = min(2.0, 0.05 * 2.0 ** attempt)
            for _ in range(50):
                delay = policy.backoff(attempt, None, rng)
                assert 0.0 <= delay <= cap

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(base_delay=0.001, max_delay=0.002)
        rng = random.Random(0)
        for _ in range(20):
            assert policy.backoff(1, 0.5, rng) >= 0.5


class TestRequestRetries:
    def test_recovers_from_shed_and_honours_retry_after(self):
        client, transport, clock = _client(
            [_shed(503, retry_after=0.2), {"ok": 1}])
        assert client.request("GET", "/stats") == {"ok": 1}
        assert transport.calls == 2
        assert len(clock.sleeps) == 1
        assert clock.sleeps[0] >= 0.2

    def test_non_retryable_status_raises_immediately(self):
        client, transport, _ = _client([_shed(400)])
        with pytest.raises(ServiceError) as failure:
            client.request("POST", "/evaluate", {})
        assert failure.value.status == 400
        assert transport.calls == 1

    def test_attempts_exhausted_raises_last_failure(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        client, transport, clock = _client(
            [_shed(429)] * 3, retry=policy)
        with pytest.raises(ServiceError) as failure:
            client.request("GET", "/stats")
        assert failure.value.status == 429
        assert transport.calls == 3
        assert len(clock.sleeps) == 2

    def test_no_retry_policy_observes_raw_status(self):
        client, transport, _ = _client([_shed(503)], retry=NO_RETRY)
        with pytest.raises(ServiceError) as failure:
            client.request("GET", "/stats")
        assert failure.value.status == 503
        assert transport.calls == 1

    def test_deadline_stops_retrying_early(self):
        # Retry-After of 10s would blow the 0.1s call budget: the
        # client gives up instead of sleeping past the deadline.
        client, transport, clock = _client(
            [_shed(503, retry_after=10.0)] * 4)
        with pytest.raises(ServiceError) as failure:
            client.request("GET", "/stats", deadline=0.1)
        assert "deadline exhausted" in str(failure.value)
        assert failure.value.status == 503
        assert transport.calls == 1
        assert clock.sleeps == []


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fails_fast(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0)
        client, transport, _ = _client(
            [ServiceError("down", status=0)] * 2,
            retry=NO_RETRY, breaker=breaker)
        for _ in range(2):
            with pytest.raises(ServiceError):
                client.request("GET", "/stats")
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.request("GET", "/stats")
        # Fail-fast: the transport was never touched again.
        assert transport.calls == 2

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0,
                                 clock=clock)
        client, transport, _ = _client(
            [ServiceError("down", status=0), {"ok": 1}, {"ok": 2}],
            retry=NO_RETRY, breaker=breaker)
        with pytest.raises(ServiceError):
            client.request("GET", "/stats")
        assert breaker.state == "open"
        clock.now += 1.5  # cooldown elapses -> half-open probe
        assert client.request("GET", "/stats") == {"ok": 1}
        assert breaker.state == "closed"
        assert client.request("GET", "/stats") == {"ok": 2}

    def test_half_open_probe_reopens_on_failure(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0,
                                 clock=clock)
        client, transport, _ = _client(
            [ServiceError("down", status=0)] * 2,
            retry=NO_RETRY, breaker=breaker)
        with pytest.raises(ServiceError):
            client.request("GET", "/stats")
        clock.now += 1.5
        with pytest.raises(ServiceError):
            client.request("GET", "/stats")
        assert transport.calls == 2
        # Re-opened: the next call is refused without a probe.
        with pytest.raises(CircuitOpenError):
            client.request("GET", "/stats")
        assert transport.calls == 2

    def test_shedding_does_not_trip_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0)
        client, transport, _ = _client(
            [_shed(429)] * 6, retry=NO_RETRY, breaker=breaker)
        for _ in range(6):
            with pytest.raises(ServiceError):
                client.request("GET", "/stats")
        assert breaker.state == "closed"
        assert transport.calls == 6

    def test_client_bug_statuses_do_not_count(self):
        assert not CircuitBreaker.counts(_shed(400))
        assert not CircuitBreaker.counts(_shed(404))
        assert CircuitBreaker.counts(ServiceError("x", status=0))
        assert CircuitBreaker.counts(_shed(503))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestWaitUntilReady:
    def test_backoff_doubles_up_to_cap(self):
        client, transport, clock = _client(
            [ServiceError("refused", status=0)] * 50)
        assert not client.wait_until_ready(timeout=2.0,
                                           interval=0.05,
                                           max_interval=0.4)
        # Probes back off 0.05 -> 0.1 -> 0.2 -> 0.4 -> 0.4 ... and
        # the final sleep is clipped to the remaining budget.
        assert clock.sleeps[:4] == [0.05, 0.1, 0.2, 0.4]
        assert all(delay <= 0.4 for delay in clock.sleeps)
        assert sum(clock.sleeps) <= 2.0 + 1e-9
        assert "no HTTP service reachable" in client.last_ready_error

    def test_distinguishes_http_error_from_unreachable(self):
        client, transport, clock = _client([_shed(500)] * 50)
        assert not client.wait_until_ready(timeout=0.2)
        assert "answered HTTP 500" in client.last_ready_error

    def test_returns_true_on_first_success(self):
        client, transport, clock = _client([{"status": "ok"}])
        assert client.wait_until_ready(timeout=1.0)
        assert clock.sleeps == []
        assert client.last_ready_error is None

    def test_probes_bypass_an_open_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=99.0)
        client, transport, clock = _client(
            [ServiceError("down", status=0), {"status": "ok"}],
            retry=NO_RETRY, breaker=breaker)
        with pytest.raises(ServiceError):
            client.request("GET", "/stats")
        assert breaker.state == "open"
        # Readiness probing must not be starved by the breaker.
        assert client.wait_until_ready(timeout=1.0)


class TestAgainstRealServer:
    """End to end: injected faults, real sockets, real recovery."""

    @pytest.fixture()
    def service(self):
        limits = ServiceLimits(retry_after=0.0)
        svc = create_service(host="127.0.0.1", port=0, limits=limits)
        thread = threading.Thread(target=svc.serve_forever,
                                  daemon=True,
                                  kwargs={"poll_interval": POLL_INTERVAL})
        thread.start()
        yield svc
        svc.shutdown()
        svc.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_recovers_from_connection_reset(self, service):
        service.faults = FaultInjector(rules=[
            FaultRule(kind="reset", path="/evaluate", times=1)])
        client = ServiceClient(
            f"http://127.0.0.1:{service.server_port}",
            retry=RetryPolicy(base_delay=0.01, max_delay=0.05))
        reply = client.evaluate(device={"node": 55})
        assert reply["count"] == 1
        assert service.faults.snapshot()["reset"] == 1

    def test_recovers_from_transient_5xx(self, service):
        service.faults = FaultInjector(rules=[
            FaultRule(kind="error", path="/evaluate", times=2,
                      status=503)])
        client = ServiceClient(
            f"http://127.0.0.1:{service.server_port}",
            retry=RetryPolicy(base_delay=0.01, max_delay=0.05))
        assert client.evaluate(device={"node": 55})["count"] == 1
        assert client.stats()["errors"] == 2
