#!/usr/bin/env bash
# Mutant gate: each row of ci/mutants.txt plants one defect in a
# throwaway copy of the tree and runs tier-1 there (`cargo build
# --release`, then `cargo test -q`, every test target run). A row passes
# when tier-1 fails and its named killer is among the failed tests.
#
#     ci/mutants.sh [WORKDIR]
#
# The script fails if a mutant survives, if its killer is not among the
# failures, if a mutant does not build, or if a row's original line is
# not in its file exactly once, so rows break loudly when the code moves,
# like ratchet rows. It first requires tier-1 to pass on the unmutated
# copy. The working tree is never written: the copy lives in WORKDIR
# (default: a fresh temporary directory, removed at the end), and each
# row restores the file it mutated before the next one. Every row
# rebuilds, so this is its own CI job, not part of tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - "$@" <<'PY'
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def rows(text):
    """The rows of ci/mutants.txt, as dicts of their four keys."""
    out, row = [], {}
    for raw in text.splitlines() + [""]:
        if raw.startswith("#"):
            continue
        if not raw.strip():
            if row:
                out.append(row)
            row = {}
            continue
        key, _, value = raw.partition(": ")
        row[key] = value.strip()
    for r in out:
        if sorted(r) != ["file", "killer", "line", "mutant"]:
            sys.exit(f"mutants: malformed row {r}")
    return out


def tier1(tree):
    """Run tier-1 in `tree`: (built, passed, output)."""
    def run(*args):
        p = subprocess.run(["cargo", *args], cwd=tree, capture_output=True, text=True)
        return p.returncode == 0, p.stdout + p.stderr

    built, out = run("build", "--release", "-q")
    if built:
        built, more = run("test", "-q", "--no-run")
        out += more
    if not built:
        return False, False, out
    passed, more = run("test", "-q", "--no-fail-fast")
    return True, passed, out + more


def main():
    plan = rows(Path("ci/mutants.txt").read_text())
    given = len(sys.argv) > 1
    work = Path(sys.argv[1]) if given else Path(tempfile.mkdtemp(prefix="mutants-"))
    tree = work / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    # The tracked and untracked-but-not-ignored files: no build outputs.
    listed = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"],
        capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        if Path(name).is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(name, tree / name)

    failures = []
    for r in plan:
        found = [l.strip() for l in (tree / r["file"]).read_text().splitlines()].count(r["line"])
        if found != 1:
            failures.append(f"{r['file']}: `{r['line']}` found {found} times, not once")
    if failures:
        sys.exit("mutants: " + "\n".join(failures))

    built, passed, out = tier1(tree)
    if not (built and passed):
        sys.exit(f"mutants: tier-1 fails on the unmutated copy\n{out[-4000:]}")
    print(f"mutants: tier-1 passes unmutated; {len(plan)} rows")

    for r in plan:
        path = tree / r["file"]
        original = path.read_text()
        lines = original.split("\n")
        i = next(i for i, l in enumerate(lines) if l.strip() == r["line"])
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        lines[i] = indent + r["mutant"]
        path.write_text("\n".join(lines))
        built, passed, out = tier1(tree)
        path.write_text(original)
        failed = {l.strip() for l in out.splitlines()}
        name = f"{r['file']}: `{r['line']}` -> `{r['mutant']}`"
        if not built:
            failures.append(f"{name}: the mutant does not build")
        elif passed:
            failures.append(f"{name}: survived tier-1")
        elif r["killer"] not in failed:
            failures.append(f"{name}: killed, but not by {r['killer']}")
        else:
            print(f"killed by {r['killer']}: {name}")

    if not given:
        shutil.rmtree(work)
    if failures:
        sys.exit("mutants: " + "\n".join(failures))
    print(f"mutants: {len(plan)} of {len(plan)} killed")


main()
PY
