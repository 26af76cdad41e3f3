#!/usr/bin/env python3
"""Documentation consistency gate (CI `docs` job).

Three checks, all mechanical so the docs cannot silently rot:

1. Every relative markdown link in the documentation set resolves to an
   existing file (anchors and external http/mailto links are skipped).
2. The environment variables match the table in src/core/env_config.hpp,
   the one place the library reads them: every table entry has a
   section in docs/CONFIGURATION.md, so a new knob cannot land without
   its reference entry; every `CDD_*` section there is in the table, so
   a retired knob cannot linger in the docs; and src/ calls getenv
   nowhere but core/env_config.cpp.
3. Bidirectional flag gate: every `--flag` and CDD_* variable that the
   built binaries print in their --help output must appear in
   docs/CONFIGURATION.md.  This direction catches a flag added to a tool
   but never documented; it runs only when the binaries are built
   (pass --bin-dir or have ./build present), so the pure-docs checks
   still run in a source-only checkout.

Exits nonzero with one line per violation.  No dependencies beyond the
standard library; run from anywhere inside the repository:

    python3 tools/check_docs.py [--bin-dir build]
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The documentation set whose links must resolve.
DOC_FILES = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/CONFIGURATION.md",
    "docs/WORKLOADS.md",
]

# Binaries whose --help output defines the user-facing flag surface,
# relative to the build directory.
HELP_BINARIES = [
    "tools/cdd_solve",
    "tools/sched_serve",
    "tools/sched_replay",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ENV_TABLE = "src/core/env_config.hpp"
ENV_ENTRY_RE = re.compile(r"EnvVar\s+k\w+\{\s*\"(CDD_[A-Z0-9_]+)\"")
ENV_SECTION_RE = re.compile(r"^### `(CDD_[A-Z0-9_]+)`", re.MULTILINE)
GETENV_RE = re.compile(r"\bgetenv\s*\(")
GETENV_HOME = "src/core/env_config.cpp"
HELP_FLAG_RE = re.compile(r"(?<![-\w])--([a-z][a-z0-9-]*)")
HELP_ENV_RE = re.compile(r"\b(CDD_[A-Z0-9_]+)\b")


def check_links():
    errors = []
    for rel in DOC_FILES:
        path = os.path.join(REPO, rel)
        if not os.path.isfile(path):
            errors.append(f"{rel}: listed in check_docs.py but missing")
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:  # pure in-page anchor
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                line = text[: match.start()].count("\n") + 1
                errors.append(f"{rel}:{line}: broken link -> {target}")
    return errors


def read_configuration():
    config = os.path.join(REPO, "docs", "CONFIGURATION.md")
    with open(config, encoding="utf-8") as f:
        return f.read()


def check_env_vars(documented):
    with open(os.path.join(REPO, ENV_TABLE), encoding="utf-8") as f:
        table = set(ENV_ENTRY_RE.findall(f.read()))
    errors = []
    if not table:
        errors.append(f"no EnvVar entries found in {ENV_TABLE} — "
                      "check_docs.py pattern is stale")
    sections = set(ENV_SECTION_RE.findall(documented))
    for var in sorted(table - sections):
        errors.append(
            f"{ENV_TABLE} lists {var} but docs/CONFIGURATION.md has no "
            f"section for it")
    for var in sorted(sections - table):
        errors.append(
            f"docs/CONFIGURATION.md documents {var} but {ENV_TABLE} "
            f"does not list it")
    src = os.path.join(REPO, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in filenames:
            if not name.endswith((".cpp", ".hpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, REPO)
            if rel == GETENV_HOME:
                continue
            with open(path, encoding="utf-8") as f:
                if GETENV_RE.search(f.read()):
                    errors.append(
                        f"{rel} calls getenv; read CDD_* variables "
                        f"through {ENV_TABLE}")
    return errors


def find_bin_dir(argv):
    """Binary directory from --bin-dir, else ./build when present."""
    for i, arg in enumerate(argv):
        if arg == "--bin-dir" and i + 1 < len(argv):
            return os.path.join(REPO, argv[i + 1])
        if arg.startswith("--bin-dir="):
            return os.path.join(REPO, arg.split("=", 1)[1])
    default = os.path.join(REPO, "build")
    return default if os.path.isdir(default) else None


def check_help_surface(documented, bin_dir):
    """Reverse gate: --help flags and CDD_* vars must be documented."""
    errors = []
    checked = 0
    for rel in HELP_BINARIES:
        binary = os.path.join(bin_dir, rel)
        if not os.path.isfile(binary) or not os.access(binary, os.X_OK):
            continue  # not built in this configuration — skip gracefully
        try:
            proc = subprocess.run(
                [binary, "--help"], capture_output=True, text=True,
                timeout=60)
        except (OSError, subprocess.TimeoutExpired) as e:
            errors.append(f"{rel} --help failed to run: {e}")
            continue
        checked += 1
        help_text = proc.stdout + proc.stderr
        name = os.path.basename(rel)
        for flag in sorted(set(HELP_FLAG_RE.findall(help_text))):
            if f"--{flag}" not in documented:
                errors.append(
                    f"{name} --help offers --{flag} but "
                    f"docs/CONFIGURATION.md never mentions it")
        for var in sorted(set(HELP_ENV_RE.findall(help_text))):
            if var not in documented:
                errors.append(
                    f"{name} --help references {var} but "
                    f"docs/CONFIGURATION.md never mentions it")
    if checked == 0:
        print("check_docs: note: no built binaries found, "
              "--help flag gate skipped")
    return errors


def main():
    documented = read_configuration()
    errors = check_links() + check_env_vars(documented)
    bin_dir = find_bin_dir(sys.argv[1:])
    if bin_dir is not None:
        errors += check_help_surface(documented, bin_dir)
    else:
        print("check_docs: note: no build directory, "
              "--help flag gate skipped")
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: all links resolve, all CDD_* env vars documented, "
          "all --help flags documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
