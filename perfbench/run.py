#!/usr/bin/env python3
"""Serving-stack benchmark: one command per workload run.

    python3 perfbench/run.py --workload street_2scale --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke        # the benchmark's own tests

Builds perfbench/ (and the pdet libraries from src/) into the build directory
($CARGO_TARGET_DIR, default .bench_build) on first use, runs the harness with
the workload's fixed configuration from perfbench/workloads.json, prints every
metric by name and unit, and ends stdout with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics (and writes a Chrome trace under the build directory).
Exit status: 0 ok, 1 wrong outputs or a build/run error, 2 invalid run.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def child_env(bdir):
    """Temporary files (the compiler's included) stay in the build dir."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(bdir):
    """Configure once, then an incremental build; returns the harness path."""
    cmake_dir = os.path.join(bdir, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=child_env(bdir)) != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))
    return os.path.join(cmake_dir, "pdet_perfbench")


def scale_list(spec):
    """[s0, s1, ...] or {"geometric": [first, last, count]}."""
    if isinstance(spec, dict):
        first, last, count = spec["geometric"]
        ratio = (last / first) ** (1.0 / (count - 1))
        return [first * ratio ** i for i in range(count)]
    return list(spec)


def workload_args(name, cfg):
    """workloads.json entry -> harness flags (names are the keys with '-')."""
    args = ["--workload", name]
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if key == "scales":
            value = ",".join(repr(float(s)) for s in scale_list(value))
        elif isinstance(value, bool):
            value = int(value)
        args += [flag, str(value)]
    return args


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_harness(exe, name, cfg, lag_limit, seed, seconds, trace, smoke,
               trace_out):
    cmd = [exe, "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace), "--lag-limit-ms", repr(lag_limit),
           "--commit", commit()] + workload_args(name, cfg)
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170, env=child_env(build_dir()))
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("harness produced no result (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness result is not JSON")
    return proc.returncode, result


def fmt(value):
    return "null" if value is None else "%.6g" % value


def print_table(title, metrics, names):
    print(title)
    for n in names:
        m = metrics.get(n)
        if m is None:
            continue
        extra = ""
        if "samples" in m:
            extra = "  (%d samples, %d beyond)" % (m["samples"], m["beyond"])
        print("  %-28s %14s %-12s%s" % (n, fmt(m["value"]), m["unit"], extra))


def print_fingerprint(result):
    h = result["host"]
    print("host: %s, nproc %d, avx2 %s (BatchBackend picks the %s kernel)"
          % (h["cpu"], h["nproc"], "yes" if h["avx2"] else "no",
             "AVX2" if h["avx2"] else "baseline"))
    print("build: %s %s, commit %s, workload %s, seed %d, %s s, trace %d"
          % (h["compiler"], h["build_type"], h["commit"], result["workload"],
             result["seed"], fmt(result["seconds"]), result["trace"]))
    if not h["optimized"]:
        print("WARNING: non-optimized build; timings are not comparable")


def print_ledger(bdir, name, result):
    """Paper ledger rows (EXPERIMENTS E5/E7), across workloads when the
    other traced workloads have been run in this build directory."""
    ledger_dir = os.path.join(bdir, "ledger")
    os.makedirs(ledger_dir, exist_ok=True)
    with open(os.path.join(ledger_dir, name + ".json"), "w") as f:
        json.dump(result["metrics"], f)
    rows = []
    for file in sorted(os.listdir(ledger_dir)):
        with open(os.path.join(ledger_dir, file)) as f:
            rows.append((file[:-5], json.load(f)))
    cols = ["detect.levels", "imgproc.gradient_ms", "hog.vote_ms",
            "hog.cell_grid_ms_per_mpix", "hog.normalize_ms",
            "hog.downscale_ms", "hog.vote_over_downscale", "score.scan_ms",
            "detect.nms_ms", "detect.process_ms"]
    print("paper ledger (per frame; cell grid = gradient + vote):")
    heads = ["levels", "gradient", "vote", "grid/Mpx", "normalize",
             "downscale", "vote/down", "scan", "nms", "process"]
    print("  %-14s" % "workload" + "".join("%12s" % h for h in heads))
    for wname, m in rows:
        print("  %-14s" % wname + "".join(
            "%12s" % fmt(m.get(c, {}).get("value")) for c in cols))


def run_once(args, bench, workloads):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    cfg = workloads["workloads"][args.workload]
    bdir = build_dir()
    exe = build(bdir)
    trace_out = ""
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        trace_out = os.path.join(bdir, "traces", "%s-seed%d.trace.json"
                                 % (args.workload, args.seed))
    code, result = run_harness(exe, args.workload, cfg,
                              workloads["lag_p90_limit_ms"], args.seed,
                              args.seconds, args.trace, False, trace_out)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = result["metrics"]
    print_fingerprint(result)
    e2e = [m["name"] for m in bench["end_to_end"]]
    extra = sorted(n for n in metrics if n.startswith("e2e."))
    print_table("end-to-end (untraced)" if not args.trace else
                "end-to-end (traced run, for the overhead figure)",
                metrics, e2e + extra)
    if args.trace:
        print_table("per-layer", metrics, [m["name"] for m in wanted])
        print_ledger(bdir, args.workload, result)
        print("trace: %s" % trace_out)
    counts = result["counts"]
    print("frames: sent %d ok %d mismatch %d dropped %d errors %d missed %d"
          % (counts["sent"], counts["ok"], counts["mismatch"],
             counts["dropped"], counts["errors"], counts["missed"]))
    if not result["valid"]:
        fail("invalid run: " + result["invalid_reason"], 2)
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["value"] is None:
            fail("metric %s missing" % m["name"], 2)
        if got["unit"] != m["unit"]:
            fail("metric %s unit %s != %s" % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = counts["failed"] == 0 and code == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, counts["attempted"]),
                      "failed": counts["failed"],
                      "metrics": out}))
    return 0 if correct else 1


def smoke(bench, workloads):
    """The benchmark's own tests: every workload, a few frames, both modes."""
    problems = []
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            if not NAME_RE.match(m["name"]):
                problems.append("bad metric name %r" % m["name"])
    if not any(m["name"] == "setup_s" for m in bench["end_to_end"]):
        problems.append("setup_s missing")
    exe = build(build_dir())
    for w in bench["workloads"]:
        name = w["name"]
        cfg = workloads["workloads"][name]
        for trace in (0, 1):
            code, result = run_harness(exe, name, cfg, 1e9, 1, 3.0, trace,
                                      True, "")
            tag = "%s trace=%d" % (name, trace)
            metrics = result["metrics"]
            counts = result["counts"]
            section = "per_layer" if trace else "end_to_end"
            for m in bench[section]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s not reported" % (tag, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s" % (tag, m["name"],
                                                        got["unit"]))
            for n in metrics:
                if not NAME_RE.match(n):
                    problems.append("%s: bad metric name %r" % (tag, n))
            if counts["sent"] != (counts["ok"] + counts["mismatch"] +
                                  counts["dropped"] + counts["errors"] +
                                  counts["missed"]):
                problems.append("%s: accounting identity broken: %s"
                                % (tag, counts))
            for n, m in metrics.items():
                if "samples" in m and (m["beyond"] >= 10) != (m["value"] is not None):
                    problems.append("%s: percentile %s reported with %d "
                                    "beyond" % (tag, n, m["beyond"]))
            if counts.get("replay_mismatches", 0) != 0:
                problems.append("%s: stage replay != DetectionEngine::process"
                                % tag)
            if counts["failed"] != 0 or code not in (0, 2):
                problems.append("%s: %d failed frames (exit %d)"
                                % (tag, counts["failed"], code))
            print("smoke %-24s sent %4d ok %4d  exit %d"
                  % (tag, counts["sent"], counts["ok"], code))
    for p in problems:
        print("FAIL: " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    if args.smoke:
        return smoke(bench, workloads)
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args, bench, workloads)


if __name__ == "__main__":
    sys.exit(main())
