"""Tests for the recommendation query service (store-first, coalescing).

The acceptance properties from the service's design:

* a warm request answers without executing any trial computation —
  its manifest section proves it with ``campaign.trials == 0``;
* N identical concurrent cold requests trigger exactly one
  computation (``service.coalesced == N - 1``);
* precompute fills exactly the keys ``/recommend`` reads (key parity
  with the study driver's ``store_key``), on either backend.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.experiments.store import open_store
from repro.obs import RunManifest, recording
from repro.service import (
    QueryService,
    RecommendRequest,
    RequestError,
    default_order,
    main,
    precompute,
    request_plan,
    serve,
)

#: A deliberately tiny request (4 candidate cases, 32 particles) so a
#: cold computation takes well under a second.
TINY = {
    "num_processors": 16,
    "distribution": "uniform",
    "num_particles": 32,
    "topologies": ["mesh", "torus"],
    "curves": ["hilbert", "zcurve"],
    "trials": 1,
}

BACKEND_URLS = {
    "directory": lambda tmp: str(tmp / "results"),
    "sqlite": lambda tmp: f"sqlite://{tmp}/results.db",
}


@pytest.fixture(params=sorted(BACKEND_URLS))
def store(request, tmp_path):
    return open_store(BACKEND_URLS[request.param](tmp_path))


def run(coro):
    return asyncio.run(coro)


class TestRequest:
    def test_default_order_keeps_occupancy_low(self):
        for n in (1, 32, 60_000, 250_000):
            order = default_order(n)
            assert 4**order >= 4 * n
            assert order >= 4
        assert default_order(60_000) == 9  # matches the small-scale regime

    def test_missing_fields_rejected(self):
        with pytest.raises(RequestError, match="missing request fields"):
            RecommendRequest.from_payload({"num_processors": 16})

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            RecommendRequest.from_payload({**TINY, "speed": "maximum"})

    def test_non_power_of_four_processors_rejected(self):
        for bad in (0, 2, 8, 100):
            with pytest.raises(RequestError, match="power of four"):
                RecommendRequest.from_payload({**TINY, "num_processors": bad})

    def test_overfull_lattice_rejected(self):
        with pytest.raises(RequestError, match="exceed"):
            RecommendRequest.from_payload({**TINY, "order": 2, "num_particles": 32})

    def test_unknown_topology_rejected(self):
        with pytest.raises(RequestError, match="unknown topology"):
            RecommendRequest.from_payload({**TINY, "topologies": ["escher"]})

    def test_payload_round_trips(self):
        request = RecommendRequest.from_payload(TINY)
        again = RecommendRequest.from_payload(request.payload())
        assert again == request
        assert again.canonical() == request.canonical()

    def test_plan_covers_candidate_grid(self):
        request = RecommendRequest.from_payload(TINY)
        plan = request_plan(request)
        assert [u.key for u in plan.units] == [
            ("mesh", "hilbert"), ("mesh", "zcurve"),
            ("torus", "hilbert"), ("torus", "zcurve"),
        ]
        cases = [u.case for u in plan.units]
        assert len({c.instance_key() for c in cases}) == 1  # events shared
        assert len({c.evaluation_key() for c in cases}) == 4


class TestQueryService:
    def test_cold_then_warm(self, store):
        service = QueryService(store)
        cold = run(service.recommend(TINY))
        assert cold["source"] == "computed"
        assert cold["manifest"]["campaign.trials"] >= 1
        warm = run(service.recommend(TINY))
        assert warm["source"] == "store"
        assert warm["manifest"] == {
            "campaign.trials": 0,
            "cases": 4,
            "store.hits": 4,
            "store.misses": 0,
        }
        assert warm["ranking"] == cold["ranking"]
        assert service.counters["service.hits"] == 1
        assert service.counters["service.computed"] == 1

    def test_concurrent_identical_requests_coalesce(self, store):
        service = QueryService(store)
        n = 5

        async def burst():
            return await asyncio.gather(*(service.recommend(TINY) for _ in range(n)))

        responses = run(burst())
        assert service.counters["service.requests"] == n
        assert service.counters["service.computed"] == 1  # exactly one campaign
        assert service.counters["service.coalesced"] == n - 1
        assert all(r == responses[0] for r in responses)

    def test_distinct_requests_do_not_coalesce(self, store):
        service = QueryService(store)
        other = {**TINY, "distribution": "normal"}

        async def burst():
            return await asyncio.gather(
                service.recommend(TINY), service.recommend(other)
            )

        first, second = run(burst())
        assert service.counters["service.coalesced"] == 0
        assert service.counters["service.computed"] == 2
        assert first["request"]["distribution"] == "uniform"
        assert second["request"]["distribution"] == "normal"

    def test_partial_warm_computes_only_missing(self, store):
        service = QueryService(store)
        narrow = {**TINY, "topologies": ["mesh"]}
        run(service.recommend(narrow))  # warms the mesh half of the grid
        wide = run(service.recommend(TINY))
        assert wide["source"] == "computed"
        assert wide["manifest"]["store.hits"] == 2
        assert wide["manifest"]["store.misses"] == 2

    def test_storeless_service_still_answers(self):
        service = QueryService(None)
        out = run(service.recommend(TINY))
        assert out["source"] == "computed"
        assert [e["rank"] for e in out["ranking"]] == [1, 2, 3, 4]

    def test_ranking_scores_ascending(self, store):
        service = QueryService(store)
        ranking = run(service.recommend(TINY))["ranking"]
        scores = [e["score"] for e in ranking]
        assert scores == sorted(scores)
        assert {e["topology"] for e in ranking} == {"mesh", "torus"}

    def test_invalid_request_raises_before_counting_compute(self, store):
        service = QueryService(store)
        with pytest.raises(RequestError):
            run(service.recommend({"num_processors": 16}))
        assert service.counters["service.computed"] == 0


class TestObjective:
    """The redesigned API: /recommend ranks by any registered metric."""

    def test_default_objective_is_acd(self):
        request = RecommendRequest.from_payload(TINY)
        assert request.objective == "acd"
        assert request.payload()["objective"] == "acd"

    def test_objective_canonicalised(self):
        request = RecommendRequest.from_payload({**TINY, "objective": "Energy"})
        assert request.objective == "energy"
        # spelling variants share one canonical request (and store keys)
        other = RecommendRequest.from_payload({**TINY, "objective": "energy"})
        assert request.canonical() == other.canonical()

    def test_unknown_objective_lists_registered_names(self):
        with pytest.raises(RequestError) as exc:
            RecommendRequest.from_payload({**TINY, "objective": "latency"})
        msg = str(exc.value)
        assert "acd" in msg and "energy" in msg and "data_volume" in msg

    def test_partition_objective_rejected(self):
        with pytest.raises(RequestError, match="partition"):
            RecommendRequest.from_payload({**TINY, "objective": "surface_to_volume"})

    def test_objective_distinguishes_requests(self):
        acd = RecommendRequest.from_payload(TINY)
        energy = RecommendRequest.from_payload({**TINY, "objective": "energy"})
        assert acd.canonical() != energy.canonical()

    def test_cold_then_warm_energy(self, store):
        service = QueryService(store)
        payload = {**TINY, "objective": "energy"}
        cold = run(service.recommend(payload))
        assert cold["source"] == "computed"
        assert cold["request"]["objective"] == "energy"
        warm = run(service.recommend(payload))
        assert warm["source"] == "store"
        assert warm["manifest"]["campaign.trials"] == 0
        assert warm["manifest"]["store.misses"] == 0
        assert warm["ranking"] == cold["ranking"]

    def test_energy_ranking_shape(self, store):
        service = QueryService(store)
        ranking = run(service.recommend({**TINY, "objective": "energy"}))["ranking"]
        scores = [e["score"] for e in ranking]
        assert scores == sorted(scores)
        for entry in ranking:
            assert entry["nfi_mean"] > 0 and entry["ffi_mean"] > 0

    def test_objectives_do_not_share_store_entries(self, store):
        service = QueryService(store)
        run(service.recommend(TINY))
        energy = run(service.recommend({**TINY, "objective": "energy"}))
        # the acd warm-up must not satisfy the energy request
        assert energy["source"] == "computed"

    def test_precompute_energy_warms_recommend(self, store):
        stats = precompute(
            store,
            num_particles=TINY["num_particles"],
            num_processors=TINY["num_processors"],
            distributions=("uniform",),
            topologies=tuple(TINY["topologies"]),
            curves=tuple(TINY["curves"]),
            trials=1,
            objective="energy",
        )
        assert stats == {"cases": 4, "reused": 0, "computed": 4, "trials": 0}
        service = QueryService(store)
        warm = run(service.recommend({**TINY, "objective": "energy"}))
        assert warm["source"] == "store"
        assert warm["manifest"]["campaign.trials"] == 0

    def test_precompute_cli_objective_flag(self, tmp_path, capsys):
        url = f"sqlite://{tmp_path}/r.db"
        assert (
            main(
                [
                    "precompute", "--store", url,
                    "--particles", "32", "--processors", "16",
                    "--distributions", "uniform", "--trials", "1",
                    "--objective", "energy",
                ]
            )
            == 0
        )
        assert "16 cases" in capsys.readouterr().out
        assert len(open_store(url)) == 16

    def test_http_unknown_objective_is_400(self, store):
        async def scenario():
            service = QueryService(store)
            ready = asyncio.Event()
            server = asyncio.create_task(serve(service, port=0, ready=ready))
            await ready.wait()
            port = service.port
            with pytest.raises(urllib.error.HTTPError) as err:
                await asyncio.to_thread(
                    _request_json, port, "/recommend", {**TINY, "objective": "nope"}
                )
            assert err.value.code == 400
            await asyncio.to_thread(_request_json, port, "/shutdown", {})
            await asyncio.wait_for(server, timeout=10)

        run(scenario())


class TestPrecompute:
    def test_warms_exactly_the_request_keys(self, store):
        stats = precompute(
            store,
            num_particles=TINY["num_particles"],
            num_processors=TINY["num_processors"],
            distributions=("uniform",),
            topologies=tuple(TINY["topologies"]),
            curves=tuple(TINY["curves"]),
            trials=1,
        )
        assert stats == {"cases": 4, "reused": 0, "computed": 4, "trials": 1}
        service = QueryService(store)
        warm = run(service.recommend(TINY))
        assert warm["source"] == "store"
        assert warm["manifest"]["campaign.trials"] == 0

    def test_second_run_reuses_everything(self, store):
        kwargs = dict(
            num_particles=32,
            num_processors=16,
            distributions=("uniform", "normal"),
            topologies=("mesh",),
            curves=("hilbert",),
            trials=1,
        )
        precompute(store, **kwargs)
        stats = precompute(store, **kwargs)
        assert stats["computed"] == 0
        assert stats["reused"] == stats["cases"] == 2


def _request_json(port: int, path: str, payload=None, timeout=30):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method="GET" if data is None else "POST",
    )
    with urllib.request.urlopen(req, timeout=timeout) as response:
        return json.loads(response.read())


class TestHttpFrontEnd:
    def test_round_trip(self, store):
        async def scenario():
            service = QueryService(store)
            ready = asyncio.Event()
            server = asyncio.create_task(serve(service, port=0, ready=ready))
            await ready.wait()
            port = service.port
            assert (await asyncio.to_thread(_request_json, port, "/healthz")) == {
                "status": "ok"
            }
            cold = await asyncio.to_thread(_request_json, port, "/recommend", TINY)
            assert cold["source"] == "computed"
            warm = await asyncio.to_thread(_request_json, port, "/recommend", TINY)
            assert warm["source"] == "store"
            assert warm["manifest"]["campaign.trials"] == 0
            stats = await asyncio.to_thread(_request_json, port, "/stats")
            assert stats["service.requests"] == 2
            assert stats["store"]["entries"] == 4
            with pytest.raises(urllib.error.HTTPError) as err:
                await asyncio.to_thread(
                    _request_json, port, "/recommend", {"num_processors": 16}
                )
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                await asyncio.to_thread(_request_json, port, "/nowhere")
            assert err.value.code == 404
            await asyncio.to_thread(_request_json, port, "/shutdown", {})
            await asyncio.wait_for(server, timeout=10)

        run(scenario())


class TestManifestSection:
    def test_service_counters_surface_in_manifest(self, store):
        service = QueryService(store)
        with recording() as rec:
            run(service.recommend(TINY))
            run(service.recommend(TINY))
        rec.merge_counters(service.counters)
        manifest = RunManifest.from_recorder(rec)
        assert manifest.service == {
            "requests": 2,
            "hits": 1,
            "coalesced": 0,
            "computed": 1,
        }
        # the section survives the JSON round trip
        reloaded = RunManifest.load(manifest.write(store.root.parent / "m.json"))
        assert reloaded.service == manifest.service


class TestServiceCli:
    def test_store_stats_json(self, tmp_path, capsys):
        url = f"sqlite://{tmp_path}/r.db"
        open_store(url).put("k", 1)
        assert main(["store", "stats", "--store", url, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["backend"] == "sqlite"
        assert stats["entries"] == 1
        assert stats["schema_version"] == 1

    def test_store_stats_human(self, tmp_path, capsys):
        assert main(["store", "stats", "--store", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "backend" in out and "directory" in out

    def test_store_stats_requires_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit, match="no store configured"):
            main(["store", "stats"])

    def test_precompute_cli(self, tmp_path, capsys):
        url = f"sqlite://{tmp_path}/r.db"
        assert (
            main(
                [
                    "precompute", "--store", url,
                    "--particles", "32", "--processors", "16",
                    "--distributions", "uniform", "--trials", "1",
                ]
            )
            == 0
        )
        assert "16 cases" in capsys.readouterr().out
        assert len(open_store(url)) == 16

    def test_experiments_cli_delegates(self, tmp_path, capsys):
        from repro.experiments.cli import main as experiments_main

        url = f"sqlite://{tmp_path}/r.db"
        open_store(url).put("k", 1)
        assert experiments_main(["store", "stats", "--store", url, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1


async def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw request bytes; return everything read until the server closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    response = await asyncio.wait_for(reader.read(), timeout=10)
    writer.close()
    await writer.wait_closed()
    return response


async def _raw_exchange_or_reset(port: int, request: bytes) -> bytes:
    """Like :func:`_raw_exchange`, but a connection reset reads as a bare close.

    A server that refuses a request before reading all of it may close
    with unread bytes in its buffer, which resets the connection.
    """
    try:
        return await _raw_exchange(port, request)
    except ConnectionError:
        return b""


def run_cli(module: str, *args: str, env: dict[str, str]) -> subprocess.CompletedProcess:
    """Run ``python -m module args`` in a fresh interpreter with ``env`` added."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    full_env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    full_env.update(env, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        env=full_env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestMalformedEnvironment:
    """A malformed REPRO_* value is a usage error at either CLI."""

    @pytest.mark.parametrize(
        "module, args, variable, value",
        [
            ("repro.experiments.cli", ("fig5",), "REPRO_JOBS", "lots"),
            ("repro.experiments.cli", ("fig5",), "REPRO_SCALE", "huge"),
            ("repro.service", ("serve", "--port", "0"), "REPRO_STORE", "ftp://x"),
            ("repro.service", ("precompute",), "REPRO_SCALE", "huge"),
        ],
        ids=["experiments-jobs", "experiments-scale", "service-store", "service-scale"],
    )
    def test_exits_2_with_one_line(self, module, args, variable, value):
        done = run_cli(module, *args, env={variable: value})
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and variable in lines[0]

    def test_scale_is_checked_only_where_it_is_read(self, tmp_path):
        """``store stats`` reads no scale, so a bad REPRO_SCALE does not stop it."""
        env = {"REPRO_SCALE": "huge", "REPRO_STORE": str(tmp_path)}
        done = run_cli("repro.service", "store", "stats", "--json", env=env)
        assert done.returncode == 0, done.stderr
        assert "entries" in json.loads(done.stdout)


class TestHttpBoundary:
    @staticmethod
    async def _serving(service):
        ready = asyncio.Event()
        server = asyncio.create_task(serve(service, port=0, ready=ready))
        await ready.wait()
        return server

    @staticmethod
    async def _shutdown(service, server):
        await asyncio.to_thread(_request_json, service.port, "/shutdown", {})
        await asyncio.wait_for(server, timeout=10)

    def test_negative_content_length_is_refused(self):
        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            service = QueryService(None)
            server = await self._serving(service)
            response = await _raw_exchange(
                service.port, b"POST /recommend HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
            )
            assert response == b""  # a clean close, no response
            assert (await asyncio.to_thread(_request_json, service.port, "/healthz")) == {
                "status": "ok"
            }
            await self._shutdown(service, server)
            assert errors == []  # nothing escaped the connection handler

        run(scenario())

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", b"414"),
            (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", b"431"),
        ],
        ids=["request-line", "header-line"],
    )
    def test_overlong_line_is_refused(self, caplog, request_bytes, status):
        async def scenario():
            service = QueryService(None)
            server = await self._serving(service)
            response = await _raw_exchange_or_reset(service.port, request_bytes)
            # the refusal, or a close that reset the connection before it arrived
            assert response == b"" or response.split(b" ", 2)[:2] == [b"HTTP/1.1", status]
            assert (await asyncio.to_thread(_request_json, service.port, "/healthz")) == {
                "status": "ok"
            }
            await self._shutdown(service, server)

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            run(scenario())
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_failing_dispatch_gets_the_500_reason_phrase(self, monkeypatch):
        async def scenario():
            service = QueryService(None)

            def broken_stats():
                raise RuntimeError("boom")

            monkeypatch.setattr(service, "stats", broken_stats)
            server = await self._serving(service)
            response = await _raw_exchange(service.port, b"GET /stats HTTP/1.1\r\n\r\n")
            status_line = response.split(b"\r\n", 1)[0]
            assert status_line == b"HTTP/1.1 500 Internal Server Error"
            assert b"RuntimeError: boom" in response
            await self._shutdown(service, server)

        run(scenario())
