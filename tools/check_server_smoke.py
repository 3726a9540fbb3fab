#!/usr/bin/env python3
"""CI smoke check for the cache server front end.

Usage:
  check_server_smoke.py [SERVER_BIN] [LOADGEN_BIN]

Starts s3fifo_server on an ephemeral port, then:
  1. speaks the protocol directly over a socket: set/get round-trips the
     stored bytes, delete removes it, stats reports coherent counters;
  2. runs a short closed-loop s3fifo_loadgen burst and checks every
     requested op completed with a plausible hit ratio;
  3. re-reads stats and checks the server counted at least the loadgen ops
     and that the data-plane counters are populated;
  4. sends `get 1` and shuts its write side in one burst: a complete reply,
     then EOF;
  5. sends SYSCALL_GETS sequential depth-1 gets on one connection and fails
     if the server's transport_syscalls grew by more than
     MAX_SYSCALLS_PER_GET per get (an epoll_wait, one read and one send; a
     read that comes back empty after each request would make it 4);
  6. sends SIGINT and verifies a clean exit with a shutdown stats line.

Then the overload step starts a one-worker server and offers it an open
loop far past its saturation rate (2 loadgen threads, 4 connections at
depth 8, 4M ops/s for 2 s). The server must survive: afterwards it still
answers stats, and it exits 0 on one SIGINT.

The argument step checks that both binaries reject bad sizes with the usage
and exit status 2 (a zero cache capacity used to abort with status 134, and
a zero pipeline depth used to hang the load generator).

Exits non-zero with a diagnostic on any violation.
"""

import re
import signal
import socket
import subprocess
import sys

SYSCALL_GETS = 2000
MAX_SYSCALLS_PER_GET = 3

OVERLOAD_ARGS = ["--threads", "2", "--connections", "4", "--depth", "8",
                 "--rate", "4000000", "--duration", "2",
                 "--objects", "131072"]


def fail(msg):
    print(f"server smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def recv_until(sock, suffix, limit=1 << 20):
    buf = b""
    while not buf.endswith(suffix):
        chunk = sock.recv(65536)
        if not chunk:
            fail(f"connection closed waiting for {suffix!r}; got {buf!r}")
        buf += chunk
        if len(buf) > limit:
            fail(f"response exceeded {limit} bytes waiting for {suffix!r}")
    return buf


def read_stats(port):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        return stats_on(s)


def stats_on(s):
    """Sends `stats` on the connected socket `s`; returns the STAT map."""
    s.sendall(b"stats\r\n")
    raw = recv_until(s, b"END\r\n").decode()
    stats = {}
    for line in raw.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "STAT" and parts[2].isdigit():
            stats[parts[1]] = int(parts[2])
    if not stats:
        fail(f"stats response had no STAT lines: {raw!r}")
    return stats


def check_protocol(port):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        # Pipelined set + get: the stored bytes must round-trip.
        s.sendall(b"set smoke 0 0 5\r\nhello\r\nget smoke\r\n")
        resp = recv_until(s, b"END\r\n")
        if not resp.startswith(b"STORED\r\n"):
            fail(f"set did not report STORED: {resp!r}")
        if b"VALUE smoke 0 5\r\nhello\r\n" not in resp:
            fail(f"get did not return the stored value: {resp!r}")
        # Delete, then the next get must miss (END with no VALUE).
        s.sendall(b"delete smoke\r\nget smoke\r\n")
        resp = recv_until(s, b"END\r\n")
        if not resp.startswith(b"DELETED\r\n"):
            fail(f"delete did not report DELETED: {resp!r}")
        if b"VALUE smoke" in resp:
            fail(f"get after delete still returned a value: {resp!r}")
        # Malformed command: an error line, connection stays usable.
        s.sendall(b"bogus\r\nversion\r\n")
        resp = recv_until(s, b"\r\n")
        while b"VERSION" not in resp:
            resp += recv_until(s, b"\r\n")
        if not resp.startswith(b"ERROR"):
            fail(f"unknown command did not yield ERROR: {resp!r}")
        s.sendall(b"quit\r\n")
    print("server smoke: protocol round-trip OK")


def check_half_close(port):
    """A request and a half-close in one burst: the reply, then EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.sendall(b"get 1\r\n")
        s.shutdown(socket.SHUT_WR)
        resp = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            resp += chunk
    if not resp.endswith(b"END\r\n"):
        fail(f"half-close: incomplete reply before EOF: {resp!r}")
    print("server smoke: half-close OK (reply, then EOF)")


def check_syscalls_per_get(port):
    """Server syscalls per sequential depth-1 get on one connection.

    The server publishes its counters after each poll, so a `stats` reply
    misses the syscalls of the poll that serves it. Two stats calls in a
    row measure that offset; it is subtracted from the delta around the
    gets, which leaves the gets' own syscalls.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        before = stats_on(s)["transport_syscalls"]
        offset = stats_on(s)["transport_syscalls"] - before
        start = stats_on(s)["transport_syscalls"]
        for i in range(SYSCALL_GETS):
            s.sendall(b"get k%d\r\n" % (i % 64))
            recv_until(s, b"END\r\n")
        delta = stats_on(s)["transport_syscalls"] - start - offset
    per_get = delta / SYSCALL_GETS
    if per_get > MAX_SYSCALLS_PER_GET:
        fail(f"{per_get:.2f} server syscalls per depth-1 get "
             f"(limit {MAX_SYSCALLS_PER_GET}; {delta} over {SYSCALL_GETS})")
    print(f"server smoke: {per_get:.2f} server syscalls per depth-1 get")


def check_bad_args(server_bin, loadgen_bin):
    """Bad sizes print the usage and exit 2; they never start or hang."""
    cases = [
        [server_bin, "--capacity", "0"],
        [server_bin, "--capacity", "abc"],
        [server_bin, "--max-batch", "8"],
        # --port 1 is valid, so only the bad value can stop these.
        [loadgen_bin, "--port", "1", "--depth", "0"],
        [loadgen_bin, "--port", "1", "--connections", "2x"],
    ]
    for argv in cases:
        try:
            run = subprocess.run(argv, capture_output=True, text=True,
                                 timeout=10)
        except subprocess.TimeoutExpired:
            fail(f"{' '.join(argv[1:])}: still running after 10 s")
        if run.returncode != 2 or "usage:" not in run.stderr:
            fail(f"{argv[0]} {' '.join(argv[1:])}: exit {run.returncode}, "
                 f"expected 2 with the usage (stderr: {run.stderr.strip()!r})")
    print(f"server smoke: {len(cases)} bad-argument runs exit 2")


def start_server(server_bin, *args):
    """Starts the server on an ephemeral port; returns (process, port)."""
    server = subprocess.Popen(
        [server_bin, "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = server.stdout.readline()
    m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
    if not m:
        server.kill()
        fail(f"server did not announce a port: {line!r} "
             f"(stderr: {server.stderr.read().strip()!r})")
    return server, int(m.group(1))


def stop_server(server, what):
    """One SIGINT must end the server with status 0 and a shutdown line."""
    server.send_signal(signal.SIGINT)
    try:
        out, _ = server.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        fail(f"{what}: server did not exit within 10 s of SIGINT")
    if server.returncode != 0:
        fail(f"{what}: server exited {server.returncode} on SIGINT")
    if "shutdown:" not in out:
        fail(f"{what}: no shutdown stats line: {out!r}")
    return out.strip().splitlines()[-1]


def run_basic(server_bin, loadgen_bin):
    server, port = start_server(server_bin, "--workers", "2",
                                "--capacity", "20000")
    try:
        check_protocol(port)
        check_half_close(port)
        check_syscalls_per_get(port)

        ops = 50000
        load = subprocess.run(
            [loadgen_bin, "--port", str(port), "--connections", "4",
             "--depth", "16", "--ops", str(ops), "--objects", "100000"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if load.returncode != 0:
            fail(f"loadgen exited {load.returncode}: {load.stderr}")
        m = re.search(r"mode=closed .*ops=(\d+) .*hit_ratio=([0-9.]+)",
                      load.stdout)
        if not m:
            fail(f"loadgen output unparseable: {load.stdout!r}")
        done, hit_ratio = int(m.group(1)), float(m.group(2))
        if done != ops:
            fail(f"loadgen completed {done} of {ops} ops")
        if not 0.0 < hit_ratio < 1.0:
            fail(f"implausible hit ratio {hit_ratio}")
        print(f"server smoke: loadgen OK ({load.stdout.splitlines()[0]})")

        stats = read_stats(port)
        # The default Zipf trace is get-dominated; a generous floor guards
        # against the server under-counting without pinning the exact mix.
        if stats.get("cmd_get", 0) < ops // 2:
            fail(f"server counted only {stats.get('cmd_get')} gets for "
                 f"{ops} ops")
        if stats.get("get_hits", 0) + stats.get("get_misses", 0) < ops // 2:
            fail(f"hit+miss counters incoherent: {stats}")
        if stats.get("batches", 0) == 0:
            fail("server never batched pipelined gets")
        if stats.get("transport_syscalls", 0) == 0:
            fail("data-plane counters missing: transport_syscalls == 0")
        print(
            "server smoke: stats OK "
            f"(cmd_get={stats['cmd_get']} batches={stats['batches']} "
            f"transport_syscalls={stats['transport_syscalls']})"
        )
        print(f"server smoke: clean shutdown ({stop_server(server, 'basic')})")
    finally:
        if server.poll() is None:
            server.kill()


def run_overload(server_bin, loadgen_bin):
    server, port = start_server(server_bin, "--workers", "1",
                                "--capacity", "32768")
    try:
        load = subprocess.run(
            [loadgen_bin, "--port", str(port), *OVERLOAD_ARGS],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if server.poll() is not None:
            fail(f"overload: server died with status {server.returncode} "
                 f"(loadgen: {load.stderr.strip() or load.stdout.strip()})")
        if load.returncode != 0:
            fail(f"overload: loadgen exited {load.returncode}: {load.stderr}")
        summary = load.stdout.splitlines()[0] if load.stdout else ""
        print(f"server smoke: overload run done ({summary})")
        stats = read_stats(port)
        if stats.get("cmd_get", 0) == 0:
            fail(f"overload: server counted no gets: {stats}")
        print(f"server smoke: overload stats OK (cmd_get={stats['cmd_get']})")
        print(f"server smoke: overload clean shutdown "
              f"({stop_server(server, 'overload')})")
    finally:
        if server.poll() is None:
            server.kill()


def main(argv):
    server_bin = argv[1] if len(argv) > 1 else "./build/src/s3fifo_server"
    loadgen_bin = argv[2] if len(argv) > 2 else "./build/src/s3fifo_loadgen"
    check_bad_args(server_bin, loadgen_bin)
    run_basic(server_bin, loadgen_bin)
    run_overload(server_bin, loadgen_bin)
    print("server smoke OK")


if __name__ == "__main__":
    main(sys.argv)
