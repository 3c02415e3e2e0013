"""T2 stub estimator: `t2_stub.py <flow_dir> <cur.pgm> <ref.pgm> <out.flo>`.

Honours the T2 estimator contract (`cmd cur.pgm ref.pgm out.flo`) with the
flow directory bound as the first argument. Instead of estimating flow it
copies the precomputed field `<flow_dir>/<sha256 of cur.pgm>.flo`, so each
call costs a process start, a hash of the current luma and a file copy.
Standard library only, so the child starts quickly.
"""
import hashlib
import os
import shutil
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        sys.stderr.write("usage: t2_stub.py FLOW_DIR CUR.pgm REF.pgm OUT.flo\n")
        return 2
    flow_dir, cur, _ref, out = argv
    with open(cur, "rb") as fh:
        key = hashlib.sha256(fh.read()).hexdigest()
    src = os.path.join(flow_dir, key + ".flo")
    if not os.path.isfile(src):
        sys.stderr.write(f"no precomputed flow for {cur} ({key})\n")
        return 1
    shutil.copyfile(src, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
