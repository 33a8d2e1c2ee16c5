"""Answer each CI frontier request in its own process, under a 60 s timeout, and
compare its answer digest with the one recorded in tests/frontier.json.

    PYTHONPATH=src python3 tests/frontier.py

A verify answer must pass, and it is digested as perfbench/execute.py digests a
reference answer: its suite, params, outcome and detail.  An enumerate answer is
digested by the lines it writes to --out.  The exit status is 1 if any request
exits nonzero, times out, does not pass or answers with another digest.  Each
digest is printed beside the recorded one; copy it into tests/frontier.json
only in a change that declares the answers it changes.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "frontier.json"
sys.path.insert(0, str(ROOT / "perfbench"))

from execute import VERIFY_ANSWER_FIELDS, _digest_lines, canonical  # noqa: E402


def answer_digest(request: str, tmp: str) -> str:
    """Run ``kisinweights <request>`` and digest its answer; raise if it fails."""
    argv = request.split()
    out = str(Path(tmp) / "answer.jsonl")
    if argv[0] == "enumerate":
        argv += ["--out", out]
    done = subprocess.run([sys.executable, "-m", "kisinweights.cli", *argv],
                          capture_output=True, text=True, timeout=60, check=True)
    if argv[0] == "enumerate":
        return _digest_lines(out)
    print(done.stdout, end="")
    doc = json.loads(done.stdout)
    if doc["outcome"] != "pass":
        raise ValueError(f"outcome {doc['outcome']!r}")
    return hashlib.sha256(canonical({k: doc[k] for k in VERIFY_ANSWER_FIELDS}).encode()).hexdigest()[:16]


def main() -> int:
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    wrong = []
    with tempfile.TemporaryDirectory() as tmp:
        for request, recorded in digests.items():
            start = time.monotonic()
            try:
                digest = answer_digest(request, tmp)
            except (subprocess.SubprocessError, ValueError, KeyError) as err:
                print(getattr(err, "stderr", None) or "", end="")
                digest = f"error: {err}"
            print(f"{request}: {digest}, recorded {recorded} ({time.monotonic() - start:.1f} s)", flush=True)
            if digest != recorded:
                wrong.append(request)
    print(f"{len(wrong)} of {len(digests)} frontier answers differ from their record: {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
