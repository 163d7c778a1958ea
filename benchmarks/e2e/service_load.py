"""Load generator and response checks for the ``service`` workload.

:func:`open_loop` is phase A: requests are due at a fixed rate, the warm
ones sent on whichever of two client connections is free; each is timed
from its due time, so a stall delays the requests queued behind it, and
the lateness of the generator itself is reported.  One request in
``cold_every`` asks for a new seed, so the server computes and stores a
fresh answer; these cold requests go on a third connection.
:func:`closed_loop` is phase B: warm requests on two connections, each
sent when the previous one returns.  :func:`cold_loop` is phase C: cold
requests alone, each sent when the previous one returns.
:func:`replay_cold` then sends every cold request again; it must come
back from the store with the ranking it was computed with.  Every
response is checked, and every check counted.

The server closes each connection after one response, so a "connection"
here is a client thread that opens one socket per request.
"""

from __future__ import annotations

import json
import socket
import threading
import time

DISTRIBUTIONS = ("uniform", "normal", "exponential")
#: Client connections for warm requests.
CONNECTIONS = 2
TIMEOUT_S = 5.0
#: Shares of the run spent in phases A, B and C (12 s, 6 s and 3 s of a
#: 30 s run); the rest covers the cold fills of the store and the server
#: start-ups.  A 15 s phase A and 3 s phase B made both phases' metrics
#: spread more over ten runs, not less: the host's slow spells, not the
#: sample count, set the tail.
PHASE_A = 0.4
PHASE_B = 0.2
PHASE_C = 0.1
#: Phase C's requests are numbered from here, clear of phase A's.
PHASE_C_FIRST = 100_000
#: The warm-up's cold request, clear of phases A and C.
WARM_UP_COLD = 200_000
WARM_UP_REQUESTS = 20


def service_sizes(quick: bool) -> dict:
    """Problem sizes of warm (precomputed) and cold requests."""
    if quick:
        return {"warm_n": 2_000, "warm_p": 64, "cold_n": 500, "cold_p": 16}
    return {"warm_n": 20_000, "warm_p": 1_024, "cold_n": 2_000, "cold_p": 64}


def warm_payload(distribution: str, sizes: dict, seed: int) -> dict:
    return {
        "num_processors": sizes["warm_p"],
        "distribution": distribution,
        "num_particles": sizes["warm_n"],
        "seed": seed,
    }


def cold_payload(index: int, sizes: dict, seed: int) -> dict:
    return {
        "num_processors": sizes["cold_p"],
        "distribution": DISTRIBUTIONS[index % len(DISTRIBUTIONS)],
        "num_particles": sizes["cold_n"],
        "seed": seed + 1 + index,
    }


def post(port: int, path: str, payload: dict | None = None) -> tuple[int, dict]:
    """One HTTP request on its own connection; ``(status, JSON body)``."""
    body = json.dumps(payload or {}).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock:
        sock.sendall(head + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    status_line, _, rest = b"".join(chunks).partition(b"\r\n")
    _, _, text = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(text)


def shutdown(port: int) -> None:
    post(port, "/shutdown")


def _check(kind: str, status: int, body: dict, ranking) -> str | None:
    """Why a response is wrong, or ``None``."""
    if status != 200:
        return f"HTTP {status}: {body.get('error')}"
    want = "store" if kind != "cold" else "computed"
    if body.get("source") != want:
        return f"{kind} request answered from {body.get('source')!r}, expected {want!r}"
    got = body.get("ranking")
    if ranking is not None:
        return None if got == ranking else f"{kind} request returned a different ranking"
    pairs = {(e["topology"], e["processor_curve"]) for e in got}
    if [e["rank"] for e in got] != list(range(1, len(got) + 1)) or len(pairs) != len(got):
        return "cold request returned a malformed ranking"
    return None


class Tally:
    """Attempted and failed operations with the failure reasons (thread-safe)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> None:
        with self.lock:
            self.attempted += 1
            if error is not None:
                self.errors.append(error)


def _send(port: int, kind: str, payload: dict, ranking, tally: Tally):
    """Send one request; return its body when it passed every check."""
    try:
        status, body = post(port, "/recommend", payload)
    except (OSError, ValueError) as exc:  # timeout, refused, torn response
        tally.record(f"{kind} request failed: {type(exc).__name__}: {exc}")
        return None
    error = _check(kind, status, body, ranking)
    tally.record(error)
    return body if error is None else None


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _run_clients(target, args) -> None:
    threads = [threading.Thread(target=target, args=(arg,)) for arg in args]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    port: int,
    expected: dict,
    sizes: dict,
    seed: int,
    seconds: float,
    quick: bool,
    offset: int,
    tally: Tally,
) -> dict:
    """Phase A: the (due, done) times of the warm and cold requests that
    passed their checks, and the cold answers.

    Requests are numbered from ``offset`` on, so one schedule (every
    ``cold_every``-th request cold, each with its own seed) can be split
    over several servers or rounds; ``next_offset`` continues it.  Each
    warm request goes on whichever of the two connections takes it first,
    as independent users would; cold ones go on a connection of their
    own, so a warm request waits for a cold computation only inside the
    server, which is the stall to measure.
    """
    # 100 req/s keeps the server and this generator clear of saturation in
    # the host's slow spells (at 200 req/s the warm p50 rose 50-fold in
    # them).  The warm tail is the wait behind cold computations; with one
    # a second it fell among a few dozen stalled requests, so every 50th
    # request is cold.
    rate = 50.0 if quick else 100.0
    cold_every = 10 if quick else 50
    total = int(seconds * rate)
    is_cold = [(offset + k) % cold_every == cold_every - 1 for k in range(total)]
    warm_queue = iter([k for k in range(total) if not is_cold[k]])
    cold_queue = iter([k for k in range(total) if is_cold[k]])
    warm: list[tuple[float, float]] = []
    cold: list[tuple[float, float]] = []
    lateness: list[float] = []
    cold_answers: list[tuple[dict, list]] = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def client(queue) -> None:
        while True:
            with lock:
                k = next(queue, None)
            if k is None:
                return
            due = start + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            n = offset + k
            if is_cold[k]:
                kind, payload, ranking = "cold", cold_payload(n // cold_every, sizes, seed), None
            else:
                dist = DISTRIBUTIONS[k % len(DISTRIBUTIONS)]
                kind, payload, ranking = "warm", warm_payload(dist, sizes, seed), expected[dist]
            body = _send(port, kind, payload, ranking, tally)
            done = time.perf_counter()
            with lock:
                lateness.append((sent - due) * 1e3)
                if body is not None and kind == "cold":
                    cold.append((due, done))
                    cold_answers.append((payload, body["ranking"]))
                elif body is not None:
                    warm.append((due, done))

    _run_clients(client, [warm_queue] * CONNECTIONS + [cold_queue])
    return {
        "warm": warm,
        "cold": cold,
        "cold_answers": cold_answers,
        "next_offset": offset + total,
        "lateness_ms": {"p99": percentile(lateness, 0.99), "max": max(lateness)},
    }


def closed_loop(
    port: int, expected: dict, sizes: dict, seed: int, seconds: float, tally: Tally
) -> tuple[int, float, float]:
    """Phase B: warm requests completed in ``seconds``, and the window."""
    done: list[int] = [0] * CONNECTIONS
    start = time.perf_counter()
    stop = start + seconds

    def client(first: int) -> None:
        k = first
        while time.perf_counter() < stop:
            dist = DISTRIBUTIONS[k % len(DISTRIBUTIONS)]
            k += CONNECTIONS
            body = _send(port, "warm", warm_payload(dist, sizes, seed), expected[dist], tally)
            if body is not None and time.perf_counter() <= stop:
                done[first] += 1

    _run_clients(client, range(CONNECTIONS))
    return sum(done), start, stop


def cold_loop(port: int, sizes: dict, seed: int, seconds: float, tally: Tally) -> dict:
    """Phase C: the (sent, done) times of the cold requests that passed
    their checks, one connection, each sent when the previous returned,
    and their answers."""
    cold: list[tuple[float, float]] = []
    cold_answers: list[tuple[dict, list]] = []
    stop = time.perf_counter() + seconds
    index = PHASE_C_FIRST
    while time.perf_counter() < stop:
        payload = cold_payload(index, sizes, seed)
        index += 1
        sent = time.perf_counter()
        body = _send(port, "cold", payload, None, tally)
        if body is not None:
            cold.append((sent, time.perf_counter()))
            cold_answers.append((payload, body["ranking"]))
    return {"cold": cold, "cold_answers": cold_answers}


def warm_up(port: int, expected: dict, sizes: dict, seed: int, server: int, tally: Tally) -> None:
    """Untimed requests that a fresh server answers slower than later
    ones: the first cold one imports and sets up the computing layers,
    the first warm ones open the store's connection.  Each ``server``
    of one store gets a cold request of its own."""
    _send(port, "cold", cold_payload(WARM_UP_COLD + server, sizes, seed), None, tally)
    for k in range(WARM_UP_REQUESTS):
        dist = DISTRIBUTIONS[k % len(DISTRIBUTIONS)]
        _send(port, "warm", warm_payload(dist, sizes, seed), expected[dist], tally)


def replay_cold(port: int, cold_answers, tally: Tally) -> None:
    """Every cold answer must now come back from the store, unchanged."""
    for payload, ranking in cold_answers:
        _send(port, "replay", payload, ranking, tally)


def run_load(
    port: int,
    expected: dict,
    sizes: dict,
    seed: int,
    seconds: float,
    quick: bool,
    offset: int,
) -> dict:
    """Phases B and A and the cold re-check against one server."""
    tally = Tally()
    share = PHASE_A + PHASE_B
    closed_loop(port, expected, sizes, seed, seconds * PHASE_B / share, tally)
    seconds_a = seconds * PHASE_A / share
    phase_a = open_loop(port, expected, sizes, seed, seconds_a, quick, offset, tally)
    replay_cold(port, phase_a.pop("cold_answers"), tally)
    return {**phase_a, "attempted": tally.attempted, "errors": tally.errors}
