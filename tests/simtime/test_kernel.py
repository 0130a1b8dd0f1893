"""The discrete-event kernel: ordering, processes, resources, determinism."""

import pytest

from repro.simtime import Environment, Resource


class TestEventsAndProcesses:
    def test_timeout_advances_clock(self):
        env = Environment()

        def proc(env):
            yield env.timeout(5.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert env.now == 5.0
        assert p.value == 5.0

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        marks = []

        def proc(env):
            for d in (1.0, 2.0, 3.5):
                yield env.timeout(d)
                marks.append(env.now)

        env.process(proc(env))
        env.run()
        assert marks == [1.0, 3.0, 6.5]

    def test_same_time_events_fire_in_schedule_order(self):
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in "abc":
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_waiting_on_process_completion(self):
        env = Environment()

        def child(env):
            yield env.timeout(2.0)
            return 42

        def parent(env):
            value = yield env.process(child(env))
            return (env.now, value)

        p = env.process(parent(env))
        env.run()
        assert p.value == (2.0, 42)

    def test_event_succeed_wakes_waiter(self):
        env = Environment()
        gate = env.event()
        log = []

        def waiter(env):
            v = yield gate
            log.append((env.now, v))

        def opener(env):
            yield env.timeout(3.0)
            gate.succeed("open")

        env.process(waiter(env))
        env.process(opener(env))
        env.run()
        assert log == [(3.0, "open")]

    def test_waiting_on_already_completed_process(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1.0)
            return "early"

        done = env.process(quick(env))

        def late(env):
            yield env.timeout(5.0)
            v = yield done
            return (env.now, v)

        p = env.process(late(env))
        env.run()
        assert p.value == (5.0, "early")

    def test_run_until_stops_clock(self):
        env = Environment()

        def proc(env):
            yield env.timeout(100.0)

        env.process(proc(env))
        env.run(until=10.0)
        assert env.now == 10.0

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_yielding_non_event_raises(self):
        env = Environment()

        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(TypeError):
            env.run()

    def test_determinism_under_repetition(self):
        def build_and_run():
            env = Environment()
            trace = []

            def proc(env, k):
                for i in range(3):
                    yield env.timeout(0.5 * (k + 1))
                    trace.append((round(env.now, 6), k, i))

            for k in range(5):
                env.process(proc(env, k))
            env.run()
            return trace

        assert build_and_run() == build_and_run()


class TestResource:
    def test_capacity_enforced(self):
        env = Environment()
        res = Resource(env, capacity=2)
        active = []
        peak = []

        def worker(env, k):
            yield res.request()
            active.append(k)
            peak.append(len(active))
            yield env.timeout(1.0)
            active.remove(k)
            res.release()

        for k in range(5):
            env.process(worker(env, k))
        env.run()
        assert max(peak) == 2
        assert env.now == pytest.approx(3.0)  # 5 jobs, 2 at a time, 1s each

    def test_release_without_request(self):
        env = Environment()
        res = Resource(env)
        with pytest.raises(RuntimeError):
            res.release()

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)
