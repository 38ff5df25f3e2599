#!/usr/bin/env python3
"""fqed benchmark: the real ``fqed`` command line on fixed configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the sources are used from ``src/``).  One
client drives a closed loop: each ``python -m fqed.cli ...`` child starts
only after the previous one has exited, and its output is checked before
its time counts.  New children start while the predicted end of the next
one stays inside ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the
median child wall time at a reference CPU speed, the median of several
set-up probes (import, config parse, grid and basis) at the same speed, and
the median child peak RSS.  The children run on one CPU, where a
``SpeedProbe`` thread times a fixed loop ten times a second; the mean speed
it sees while a child runs converts the child's wall time to the reference
speed.  The raw wall times are printed beside it.  ``--trace 1`` runs
one traced child (``child.py trace``), checks that it wrote the same bytes
as the plain children before it (running one first if this checkout has
none), and reports the per-layer metrics.

Every child runs with the BLAS pools pinned to one thread.  The workload
inputs are the fixed configs under ``perfbench/configs``, used as they are:
the program has no random input, so the seed changes nothing it runs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one scan row or
one hard ``verify`` check; a child that exits non-zero, writes rows the
reference does not have, or whose output bytes differ from an earlier run of
the same workload, sources and environment fails all of its operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from child import BOUNDARIES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_ROOT = ROOT / ".perfbench_out"

#: Same value on every commit compared: with the default pool size the
#: children oversubscribe the cores and the last bits of the outputs move.
PINNED_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: Set-up probes per run, half before the fqed children and half after: on
#: a shared host the CPU speed changes in phases of seconds, and two windows
#: far apart give a steadier median than one.
SETUP_PROBES = 6
#: Wall-clock limit for a whole run; children still running are killed.
RUN_LIMIT_S = 170.0

#: Pinned acceptance tolerances (criterion a06) and the reference tolerance
#: for the values a scan row reports.  The acceptance suite pins the H-vs-K
#: route tolerance at occupation cap 2 only for alpha <= 1e-3; alpha = 5e-3
#: needs cap 3 for the frame truncation error to clear it.
DELTA_HK_TOL = 1e-5
DELTA_HF_TOL = 1e-4
REFERENCE_TOL = {"E": 1e-5, "d2E_H": 1e-5, "d2E_K": 1e-5}


@dataclass(frozen=True)
class Workload:
    config: str          # file under perfbench/configs
    argv: tuple          # fqed subcommand and its options
    reference: str       # file under perfbench/reference
    basis_dim: int       # Fock basis size the set-up probe must report
    hk_alpha_max: float = float("inf")   # rows up to this alpha get
                                         # the DELTA_HK_TOL check


WORKLOADS = {
    "desk-scan": Workload("desk.cfg", ("mass-scan",), "desk-scan.csv", 703,
                          hk_alpha_max=1e-3),
    "deep-scan": Workload("deep.cfg", ("mass-scan",), "deep-scan.csv", 9139),
    "desk-verify": Workload("desk.cfg", ("verify", "--suite", "all"),
                            "desk-verify.txt", 703),
}


#: The speed probe: every PROBE_PERIOD_S it times CALIBRATION_LOOPS turns of
#: a fixed Python loop on the CPU the children run on.  REF_LOOP_S is the
#: loop's CPU time at the reference speed (about the fast phase of the host
#: the figures in NOTES.md come from); a child's time is converted to it.
PROBE_PERIOD_S = 0.1
CALIBRATION_LOOPS = 15000
REF_LOOP_S = 1.0e-3


def _calibration_loop() -> int:
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i
    return x


class SpeedProbe:
    """Speed of the CPU the children share, sampled while they run.

    On a shared host a vCPU switches between speeds about 1.4 times apart,
    in phases of seconds, and each vCPU on its own; a child's wall time moves
    with the share of slow phases it meets.  The probe is a thread pinned,
    like the children, to one CPU: it wakes every PROBE_PERIOD_S, preempts
    the child for about 1 ms and times the calibration loop in thread CPU
    time, so that the child taking the CPU back in the middle of a loop does
    not count.  The mean speed over a window (REF_LOOP_S over each sample's
    loop time) converts the window's wall time to seconds at the reference
    speed.
    """

    def __init__(self):
        self.samples: list = []          # (start, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            t0, c0 = time.perf_counter(), time.thread_time()
            _calibration_loop()
            self.samples.append((t0, time.thread_time() - c0))

    def stop(self):
        self._stop.set()
        self._thread.join()

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1] as a share of the reference speed."""
        inside = [u for t, u in self.samples if t0 <= t <= t1]
        if not inside and self.samples:      # window shorter than a period
            inside = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        if not inside:
            return 1.0
        return statistics.fmean(REF_LOOP_S / u for u in inside)


@dataclass
class Child:
    rc: int
    wall_s: float
    ref_s: float         # wall time at the probe's reference speed
    cpu_s: float
    rss_mib: float
    stdout: bytes
    stderr: bytes


def run_child(cmd: list, env: dict, log_dir: Path, deadline: float,
              speed: SpeedProbe) -> Child:
    """Run one child to completion, timing it from spawn to exit."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = t1 - t0
    return Child(rc=proc.returncode, wall_s=wall,
                 ref_s=wall * speed.speed(t0, t1),
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mib=usage.ru_maxrss / 1024.0,
                 stdout=out_path.read_bytes(), stderr=err_path.read_bytes())


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# -- output checks ---------------------------------------------------------

def _scan_rows(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",", len(header) - 1)))
        key = (float(row["alpha"]), int(row["j"]), float(row["Px"]),
               float(row["Py"]), float(row["Pz"]))
        if key in rows:
            raise ValueError(f"duplicate scan row {key}")
        rows[key] = row
    return rows


def check_scan(output: str, reference: dict,
               hk_alpha_max: float) -> tuple[int, list]:
    """Failed operations (scan rows) of one mass-scan output."""
    try:
        rows = _scan_rows(output)
    except (ValueError, KeyError, IndexError) as exc:
        return len(reference), [f"unreadable scan.csv: {exc}"]
    extra = set(rows) - set(reference)
    if extra:
        return len(reference), [f"rows not in the reference: {sorted(extra)}"]
    failed, notes = 0, []
    for key, ref in reference.items():
        row = rows.get(key)
        problem = "missing" if row is None else row["error"].strip()
        if not problem:
            try:
                if float(row["alpha"]) <= hk_alpha_max \
                        and not float(row["delta_HK"]) <= DELTA_HK_TOL:
                    problem = f"delta_HK {row['delta_HK']} > {DELTA_HK_TOL}"
                elif not float(row["delta_HF"]) <= DELTA_HF_TOL:
                    problem = f"delta_HF {row['delta_HF']} > {DELTA_HF_TOL}"
                for col, tol in REFERENCE_TOL.items():
                    if not abs(float(row[col]) - float(ref[col])) <= tol:
                        problem = (f"{col} {row[col]} differs from reference "
                                   f"{ref[col]} by more than {tol}")
            except ValueError as exc:
                problem = str(exc)
        if problem:
            failed += 1
            notes.append(f"row {key}: {problem}")
    return failed, notes


_VERIFY_LINE = re.compile(r"^\[(PASS|FAIL)\] \((hard|soft)\) ([^:]+): ",
                          re.MULTILINE)


def hard_checks(text: str) -> dict:
    return {m.group(3): m.group(1) == "PASS"
            for m in _VERIFY_LINE.finditer(text) if m.group(2) == "hard"}


def check_verify(output: str, reference: list) -> tuple[int, list]:
    """Failed operations (hard checks) of one verify output."""
    checks = hard_checks(output)
    lines = output.strip().splitlines()
    if not lines or not lines[-1].startswith("verify: 0 hard failures"):
        return len(reference), ["no 'verify: 0 hard failures' summary"]
    if set(checks) != set(reference):
        return len(reference), ["hard checks differ from the reference"]
    bad = [name for name in reference if not checks[name]]
    return len(bad), [f"hard check failed: {name}" for name in bad]


def load_reference(work: Workload):
    text = (BENCH / "reference" / work.reference).read_text()
    if work.argv[0] == "mass-scan":
        return _scan_rows(text)
    return list(hard_checks(text))


def child_output(work: Workload, child: Child, out_dir: Path) -> bytes:
    """Bytes the command is promised to reproduce on every run."""
    if work.argv[0] == "mass-scan":
        path = out_dir / "scan.csv"
        return path.read_bytes() if path.is_file() else b""
    return child.stdout


def check_output(work: Workload, child: Child, output: bytes,
                 reference) -> tuple[int, list]:
    if child.rc != 0:
        tail = child.stderr.decode(errors="replace").strip()[-300:]
        return len(reference), [f"exit code {child.rc}: {tail}"]
    text = output.decode(errors="replace")
    if work.argv[0] == "mass-scan":
        return check_scan(text, reference, work.hk_alpha_max)
    return check_verify(text, reference)


# -- determinism across runs -----------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """Commit of a git checkout, read without running git; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class DigestStore:
    """Output digests of earlier runs, keyed by workload, sources and env."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, output: bytes) -> str:
        digest = hashlib.sha256(output).hexdigest()
        first = self.known.setdefault(self.key, digest)
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        return "" if first == digest else (
            f"output digest {digest[:12]} differs from {first[:12]} of an "
            "earlier run of the same workload, sources and environment")


# -- per-layer metrics from the traced child's spans ------------------------

def layer_metrics(spans: list) -> dict:
    """Per-layer counts, self times and ratios from [name, parent, t0, t1,
    attrs] spans; self time excludes time spent in child spans."""
    inner = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            inner[parent] += t1 - t0
    calls: dict = {}
    self_s: dict = {}
    nodes = h_fiber = h_repeat = sector_repeat = frame_solves = 0
    for i, (name, parent, t0, t1, attrs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - inner[i]
        attrs = attrs or {}
        nodes += attrs.get("nodes", 0)
        if attrs.get("h_fiber"):
            h_fiber += 1
            h_repeat += attrs["repeat"]
        if name == "cascade.sector_ground":
            sector_repeat += attrs.get("repeat", False)
            if parent >= 0 and spans[parent][0] == "observables.frame_ground":
                frame_solves += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in set(BOUNDARIES) | {
            "spectral.ground_state_dense", "spectral.ground_state_lanczos"}:
        out[f"{name}_calls"] = calls.get(name, 0)
        out[f"{name}_s"] = self_s.get(name, 0.0)
    out["hamiltonian.h_fiber_repeat_ratio"] = ratio(h_repeat, h_fiber)
    out["spectral.solves_per_init"] = ratio(
        calls.get("spectral.resolvent_solve", 0),
        calls.get("spectral.resolvent_init", 0))
    out["spectral.contour_nodes"] = nodes
    out["cascade.sector_ground_repeat_ratio"] = ratio(
        sector_repeat, calls.get("cascade.sector_ground", 0))
    out["observables.frame_solves_per_frame"] = ratio(
        frame_solves, calls.get("observables.frame_ground", 0))
    return out


# -- the run ---------------------------------------------------------------

def median_quartiles(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fqed" / "cli.py").is_file() \
            or not spec_path.is_file():
        print(f"error: {ROOT} holds no fqed sources (src/fqed) or no "
              "BENCHMARK.json; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # The children inherit this thread's CPU, and so does the speed probe.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = SpeedProbe()
    try:
        return measure(args, wanted, speed)
    finally:
        speed.stop()


def measure(args, wanted: list, speed: SpeedProbe) -> int:
    work = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = OUT_ROOT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = BENCH / "configs" / work.config
    env = child_env()
    reference = load_reference(work)
    setup_cmd = [sys.executable, str(BENCH / "child.py"), "setup",
                 "--config", str(config)]
    problems: list[str] = []

    # warm-up probe: fills the bytecode caches and reports the environment
    probe = run_child(setup_cmd + ["--env"], env, run_dir / "probe", deadline,
                      speed)
    try:
        env_info = json.loads(probe.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        env_info = {}
        problems.append(f"set-up probe failed (exit {probe.rc}): "
                        f"{probe.stderr.decode(errors='replace')[-300:]}")
    env_info.update(PINNED_ENV, cpus=os.cpu_count(), cpu=cpu_model(),
                    machine=platform.machine(), sources=source_digest()[:16])
    store = DigestStore(OUT_ROOT / "digests.json", json.dumps(
        [args.workload, env_info], sort_keys=True))
    print("environment:", json.dumps(dict(env_info, commit=git_commit()),
                                     sort_keys=True))

    setup_times = []

    def setup_probes(count: int):
        for _ in range(count):
            i = len(setup_times)
            probe = run_child(setup_cmd, env, run_dir / f"probe{i}",
                              deadline, speed)
            setup_times.append(probe.ref_s)
            try:
                dim = json.loads(probe.stdout.decode().strip())["dim"]
            except (ValueError, KeyError):
                dim = None
            if probe.rc != 0 or dim != work.basis_dim:
                problems.append(f"set-up probe {i}: exit {probe.rc}, basis "
                                f"{dim} (expected {work.basis_dim})")

    if not args.trace:
        setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    attempted = failed = 0

    def run_fqed(tag: str, prefix: list) -> Child:
        nonlocal attempted, failed
        out_dir = run_dir / tag
        cmd = prefix + list(work.argv) + ["--config", str(config),
                                          "--out", str(out_dir)]
        child = run_child(cmd, env, out_dir, deadline, speed)
        output = child_output(work, child, out_dir)
        n_bad, notes = check_output(work, child, output, reference)
        same = store.check(output)
        if same:
            n_bad, notes = len(reference), notes + [same]
        attempted += len(reference)
        failed += n_bad
        problems.extend(f"{tag}: {note}" for note in notes)
        print(f"{tag}: exit {child.rc}, {child.wall_s:.3f} s "
              f"({child.cpu_s:.3f} s CPU), {child.ref_s:.3f} s at the "
              "reference speed, "
              f"{child.rss_mib:.1f} MiB, {len(reference) - n_bad}/"
              f"{len(reference)} operations correct")
        return child

    # A traced run needs a plain child only when no earlier run of this
    # checkout has stored the bytes the traced child must reproduce.
    plain = [sys.executable, "-m", "fqed.cli"]
    children = []
    loop_start = time.monotonic()
    while not (args.trace and store.key in store.known):
        children.append(run_fqed(f"run{len(children)}", plain))
        typical = statistics.median(c.wall_s for c in children)
        now = time.monotonic()
        if args.trace or now - loop_start + typical > args.seconds \
                or now + typical > deadline:
            break

    if args.trace:
        spans_path = run_dir / "spans.json"
        traced = run_fqed("traced", [sys.executable, str(BENCH / "child.py"),
                                     "trace", "--spans", str(spans_path),
                                     "--"])
        try:
            trace = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            trace = {"missing": [], "spans": [], "overhead_s": 0.0}
            problems.append("traced child wrote no spans")
        for target in trace["missing"]:
            print(f"warning: boundary fqed.{target} not found; its "
                  "per-layer figures read 0")
        values = layer_metrics(trace["spans"])
        values["trace.overhead_s"] = trace["overhead_s"]
    else:
        setup_probes(SETUP_PROBES // 2)
        values = {
            "ref_wall_s": statistics.median(c.ref_s for c in children),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(c.rss_mib for c in children),
        }
        print(f"wall time over {len(children)} runs: "
              f"{median_quartiles([c.wall_s for c in children])} s, at the "
              f"reference speed {values['ref_wall_s']:.4f} s")
        print(f"setup_s over {len(setup_times)} probes: "
              f"{median_quartiles(setup_times)}")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for note in problems:
        print("problem:", note)
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
