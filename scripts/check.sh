#!/usr/bin/env bash
# The full gate: format, lints, tests, bench compilation, docs, and the
# CLI legs. CI (.github/workflows/ci.yml) runs this script; run it
# before pushing to catch everything CI would.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test --release -p because (the build the figures and e2ebench run)"
cargo test --release -p because -q

echo "==> cargo test -p obs --no-default-features"
cargo test -p obs --no-default-features -q

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> artifact smoke test (--trace / --report-json on a tiny campaign)"
cargo build --release -p experiments --bins -q
artifacts="$(mktemp -d)"
trap 'rm -rf "$artifacts"' EXIT
REPRO_SCALE=tiny ./target/release/fig02_penalty_trace \
    --trace "$artifacts/fig02.trace.json" \
    --report-json "$artifacts/fig02.report.json" > /dev/null
python3 -m json.tool "$artifacts/fig02.trace.json" > /dev/null
python3 -m json.tool "$artifacts/fig02.report.json" > /dev/null
REPRO_SCALE=tiny ./target/release/fig06_link_similarity \
    --trace "$artifacts/fig06.trace.json" \
    --report-json "$artifacts/fig06.report.json" > /dev/null
python3 -m json.tool "$artifacts/fig06.trace.json" > /dev/null
python3 -m json.tool "$artifacts/fig06.report.json" > /dev/null

echo "==> examples (release; inconsistent_damping asserts Eq. 8 flags AS 701)"
cargo build --release --examples -q
for src in examples/*.rs; do
    "./target/release/examples/$(basename "$src" .rs)" > /dev/null
done

echo "==> fault-matrix smoke test (--faults on a tiny campaign)"
REPRO_SCALE=tiny ./target/release/fig05_signature \
    --faults drill \
    --report-json "$artifacts/fig05.faults.report.json" > /dev/null
REPRO_SCALE=tiny ./target/release/fig09_marginals \
    --faults "outage=0.3,reset=0.2,loss=0.02,dup=0.02,reorder=0.05,clock-skew-secs=5,seed=7" \
    --report-json "$artifacts/fig09.faults.report.json" > /dev/null
python3 - "$artifacts/fig05.faults.report.json" "$artifacts/fig09.faults.report.json" <<'PY'
import json, sys
for path in sys.argv[1:]:
    report = json.load(open(path))
    sections = {s["name"]: {e["name"]: e.get("value") for e in s["entries"]}
                for s in report["sections"]}
    faults = sections.get("faults")
    assert faults is not None, f"{path}: no faults section"
    assert faults.get("total", 0) > 0, f"{path}: fault plan injected nothing"
# fig09 runs inference. HMC computes the log posterior once per chain
# at its start and once per trajectory that reaches its last leapfrog
# step, and the gradient at every step.
path = sys.argv[2]
hmc = {e["name"]: e.get("value") for s in json.load(open(path))["sections"]
       if s["name"] == "because.hmc" for e in s["entries"]}
chains, proposals = hmc["chains"], hmc["proposals"]
values, grads = hmc["likelihood_evals"], hmc["grad_evals"]
assert chains <= values <= chains + proposals < grads, (
    f"{path}: HMC counters chains={chains} likelihood_evals={values} "
    f"proposals={proposals} grad_evals={grads}")
PY

echo "==> a fault rate outside [0, 1] is a usage error (exit 2)"
set +e
REPRO_SCALE=tiny ./target/release/fig05_signature --faults loss=20 > /dev/null 2>&1
rate_status=$?
set -e
if [ "$rate_status" -ne 2 ]; then
    echo "expected --faults loss=20 to exit 2, got $rate_status" >&2
    exit 1
fi

echo "==> resume-equivalence smoke test (kill at draw 150, resume, diff)"
REPRO_SCALE=tiny ./target/release/fig09_marginals > "$artifacts/fig09.ref.txt"
set +e
REPRO_SCALE=tiny REPRO_KILL_AFTER_DRAWS=150 ./target/release/fig09_marginals \
    --checkpoint "$artifacts/fig09.ckpt" > /dev/null 2>&1
kill_status=$?
set -e
if [ "$kill_status" -ne 86 ]; then
    echo "expected simulated kill to exit 86, got $kill_status" >&2
    exit 1
fi
REPRO_SCALE=tiny ./target/release/fig09_marginals \
    --resume "$artifacts/fig09.ckpt" > "$artifacts/fig09.resumed.txt"
diff "$artifacts/fig09.ref.txt" "$artifacts/fig09.resumed.txt"

echo "==> core-count independence (tiny runs on one core match unrestricted runs)"
# The simulator runs its prefix lanes on every available core; no option
# sets a thread count. Pinning the process to one core is the only way to
# change it, so compare one-core runs against unrestricted ones.
[ "$(taskset -c 0 nproc)" = 1 ] || { echo "taskset -c 0 did not pin to one core" >&2; exit 1; }
mkdir -p "$artifacts/cores"
for cores in all one; do
    pin=()
    [ "$cores" = one ] && pin=(taskset -c 0)
    out="$artifacts/cores/$cores"
    REPRO_SCALE=tiny "${pin[@]}" ./target/release/fig05_signature --faults drill \
        --trace "$out.fig05.trace.json" > "$out.fig05.txt" 2> /dev/null
    REPRO_SCALE=tiny "${pin[@]}" ./target/release/fig09_marginals > "$out.fig09.txt"
    REPRO_SCALE=tiny "${pin[@]}" ./target/release/table4_precision_recall > "$out.table4.txt"
    REPRO_SCALE=tiny "${pin[@]}" ./target/release/fig02_penalty_trace \
        --trace "$out.fig02.trace.json" > /dev/null 2>&1
done
for file in fig05.txt fig05.trace.json fig09.txt table4.txt fig02.trace.json; do
    cmp "$artifacts/cores/all.$file" "$artifacts/cores/one.$file"
done

echo "==> golden stdout (tiny, all 14 binaries byte-identical with flags off)"
mkdir -p "$artifacts/golden"
for bin in appendix_b_defaults fig02_penalty_trace fig05_signature \
    fig06_link_similarity fig07_project_overlap fig08_propagation \
    fig09_marginals fig10_burst_hist fig11_scatter fig12_interval_share \
    fig13_rdelta_cdf table2_categories table3_divergence \
    table4_precision_recall; do
    REPRO_SCALE=tiny "./target/release/$bin" > "$artifacts/golden/$bin.txt"
done
(cd "$artifacts/golden" && sha256sum --quiet -c "$root/tests/golden_stdout_tiny.sha256")

echo "==> golden stdout (tiny, all 14 files of one repro_all run)"
REPRO_SCALE=tiny ./target/release/repro_all "$artifacts/golden_all" 2> /dev/null
(cd "$artifacts/golden_all" && sha256sum --quiet -c "$root/tests/golden_stdout_tiny.sha256")

echo "==> results/ (small, one repro_all run equals the committed files)"
REPRO_SCALE=small ./target/release/repro_all "$artifacts/results" 2> /dev/null
diff -r "$root/results" "$artifacts/results"

echo "==> e2ebench traced replay (digests and counts unchanged)"
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml
for pair in rfd_small:9e6e0e0fc4833376 rov_small:b216038698b928da \
    multi_interval_faults:f1d4089574fb87aa; do
    workload="${pair%%:*}"
    ./e2ebench/target/release/e2ebench --workload "$workload" --seed 2020 \
        --seconds 1 --trace 1 > "$artifacts/e2ebench.$workload.txt" 2> /dev/null
    python3 - "$artifacts/e2ebench.$workload.txt" "${pair##*:}" <<'PY'
import json, sys
path, want = sys.argv[1:3]
lines = open(path).read().splitlines()
result, run = json.loads(lines[-1]), json.loads(lines[-2])["run"]
assert result["correct"] is True, f"{path}: correct is {result['correct']}"
assert result["failed"] == 0, f"{path}: {result['failed']} failed runs"
assert run["digest"] == want, f"{path}: digest {run['digest']}, want {want}"
PY
done

echo "==> serve/dash smoke test (fig09 with --serve + --dash, live scrape)"
: > "$artifacts/fig09.serve.err"
REPRO_SCALE=tiny REPRO_SERVE_LINGER_SECS=60 ./target/release/fig09_marginals \
    --serve 127.0.0.1:0 --dash "$artifacts/fig09.dash.html" \
    > /dev/null 2> "$artifacts/fig09.serve.err" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(grep -o 'http://[0-9.:]*' "$artifacts/fig09.serve.err" | head -1 || true)"
    [ -n "$addr" ] && break
    sleep 0.2
done
[ -n "$addr" ] || { echo "serve endpoint never announced an address" >&2; exit 1; }
code=""
for _ in $(seq 1 100); do
    code="$(curl -s -o /dev/null -w '%{http_code}' "$addr/healthz" || true)"
    [ "$code" = "200" ] && break
    sleep 0.2
done
[ "$code" = "200" ] || { echo "/healthz never returned 200 (got '$code')" >&2; exit 1; }
# Wait for the run itself to finish (the dashboard is written last,
# before the linger window), then scrape the final state.
for _ in $(seq 1 300); do
    [ -f "$artifacts/fig09.dash.html" ] && break
    sleep 0.2
done
[ -f "$artifacts/fig09.dash.html" ] || { echo "dashboard never written" >&2; exit 1; }
curl -s "$addr/metrics" > "$artifacts/fig09.metrics.txt"
curl -s "$addr/progress" > "$artifacts/fig09.progress.json"
curl -s "$addr/report" > "$artifacts/fig09.live-report.json"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
python3 - "$artifacts/fig09.metrics.txt" "$artifacts/fig09.progress.json" \
    "$artifacts/fig09.live-report.json" "$artifacts/fig09.dash.html" <<'PY'
import json, re, sys
metrics_path, progress_path, report_path, dash_path = sys.argv[1:5]

# Prometheus text exposition 0.0.4: TYPE lines, then samples with finite
# or +/-Inf/NaN float values; histogram buckets must be cumulative, no
# (name, labels) series may repeat, and every /progress chain must have
# its {kernel,chain}-labelled accept_rate sample and rank-diagnostics
# samples equal to its /progress row.
name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
seen, buckets, series = {}, {}, {}
for line in open(metrics_path):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("#"):
        parts = line.split()
        assert parts[:2] == ["#", "TYPE"] and len(parts) == 4, f"bad meta: {line}"
        assert parts[3] in ("counter", "gauge", "histogram"), line
        continue
    m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$", line)
    assert m, f"bad sample line: {line}"
    name, labels, value = m.groups()
    assert name_re.match(name), name
    float(value)  # parses (inf/nan allowed by the format)
    seen[name] = float(value)
    key = (name, labels or "")
    assert key not in series, f"series repeats: {line}"
    series[key] = float(value)
    if name.endswith("_bucket"):
        buckets.setdefault(name, []).append(float(value))
for counts in buckets.values():
    assert counts == sorted(counts), "histogram buckets not cumulative"
assert seen.get("repro_draws", 0) > 0, "no draws recorded at /metrics"
assert "repro_max_rank_r_hat" in seen, "max_rank_r_hat gauge missing"

progress = json.load(open(progress_path))
assert progress["chains"], "empty /progress table"
for chain in progress["chains"]:
    assert chain["phase"] == "done", f"chain not done at scrape: {chain}"
    assert chain["iteration"] == chain["total"], chain
    labels = '{kernel="%s",chain="%d"}' % (chain["kernel"], chain["chain"])
    assert ("repro_accept_rate", labels) in series, f"no accept_rate sample for {labels}"
    for gauge in ("max_rank_r_hat", "min_ess_bulk"):
        got = series.get((f"repro_{gauge}", labels))
        assert got == chain[gauge], f"repro_{gauge}{labels} is {got}, /progress has {chain}"

report = json.load(open(report_path))
sections = {s["name"] for s in report["sections"]}
assert "because.diagnostics" in sections, sections
diag = next(s for s in report["sections"] if s["name"] == "because.diagnostics")
names = {e["name"] for e in diag["entries"]}
for want in ("max_rank_r_hat", "min_ess_bulk", "min_ess_tail"):
    assert want in names, f"{want} missing from live report"
assert "max_r_hat" not in names, "classic max_r_hat left in because.diagnostics"

html = open(dash_path).read()
assert html.startswith("<!DOCTYPE html>"), "not an HTML document"
for tag in ("html", "body", "svg", "table"):
    assert html.count(f"<{tag}") == html.count(f"</{tag}>"), f"unbalanced <{tag}>"
for section_id in ("summary", "diagnostics", "traces", "marginals", "report"):
    assert f'id="{section_id}"' in html, f"#{section_id} missing"
stripped = html.replace("http://www.w3.org/2000/svg", "")
assert "http://" not in stripped and "https://" not in stripped, "external asset"
print("serve/dash artifacts validated")
PY

echo "All checks passed."
