#!/usr/bin/env python3
"""CI guard: simulation-affecting changes must bump CODE_REV_SALT.

The result cache (``repro.cache``) keys entries on the session spec
plus a manual code-revision salt.  Any change under the directories
that define what a session *computes* (:data:`WATCHED`: the simulator,
the metering core, power, the graphics pipeline, apps, the display,
governors, session assembly, inputs, traces and faults) can change the
summary an unchanged spec produces, which would otherwise let stale
cache entries masquerade as fresh results.  This script fails the
build when such a change lands without a salt bump.

Usage::

    python scripts/check_salt_bump.py [--base <ref>]

``--base`` defaults to the merge base with ``origin/main`` (falling
back to ``HEAD~1`` in shallow or detached checkouts).  The check
passes when either no watched path changed or the ``CODE_REV_SALT``
assignment in ``src/repro/cache.py`` differs between base and HEAD.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys

#: Directories whose changes alter what a cached session computes.
WATCHED = (
    "src/repro/sim/",
    "src/repro/core/",
    "src/repro/power/",
    "src/repro/graphics/",
    "src/repro/apps/",
    "src/repro/display/",
    "src/repro/governors/",
    "src/repro/pipeline/",
    "src/repro/inputs/",
    "src/repro/traces/",
    "src/repro/faults/",
)

#: File holding the salt, and the assignment pattern inside it.
SALT_FILE = "src/repro/cache.py"
SALT_RE = re.compile(r'^CODE_REV_SALT\s*=\s*"([^"]*)"', re.MULTILINE)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True,
                          text=True, check=True).stdout


def _resolve_base(explicit: str | None) -> str:
    if explicit:
        return explicit
    for candidate in ("origin/main", "main"):
        try:
            return _git("merge-base", candidate, "HEAD").strip()
        except subprocess.CalledProcessError:
            continue
    return "HEAD~1"


def _salt_at(ref: str) -> str | None:
    try:
        text = _git("show", f"{ref}:{SALT_FILE}")
    except subprocess.CalledProcessError:
        return None
    match = SALT_RE.search(text)
    return match.group(1) if match else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", default=None,
                        help="ref to diff against (default: merge "
                             "base with origin/main)")
    args = parser.parse_args(argv)
    base = _resolve_base(args.base)

    try:
        changed = _git("diff", "--name-only", base,
                       "HEAD").splitlines()
    except subprocess.CalledProcessError as exc:
        print(f"check_salt_bump: cannot diff against {base!r}: "
              f"{exc.stderr or exc}", file=sys.stderr)
        return 2

    touched = sorted(path for path in changed
                     if path.startswith(WATCHED))
    if not touched:
        print(f"check_salt_bump: no watched paths changed vs "
              f"{base[:12]}; ok")
        return 0

    old_salt = _salt_at(base)
    new_salt = _salt_at("HEAD")
    if new_salt is None:
        print(f"check_salt_bump: no CODE_REV_SALT found in "
              f"{SALT_FILE} at HEAD", file=sys.stderr)
        return 1
    if old_salt is None or old_salt != new_salt:
        print(f"check_salt_bump: watched paths changed "
              f"({len(touched)} file(s)) and salt bumped "
              f"({old_salt!r} -> {new_salt!r}); ok")
        return 0

    print("check_salt_bump: the following simulation-affecting files "
          f"changed vs {base[:12]} without a CODE_REV_SALT bump in "
          f"{SALT_FILE}:", file=sys.stderr)
    for path in touched:
        print(f"  {path}", file=sys.stderr)
    print(f"current salt: {new_salt!r} — bump it so stale cache "
          "entries are orphaned.", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
