"""The command-line contract shared by rhythm_sim and the bench binaries.

Every flag is declared once, in a FlagTable of FlagSpec entries in the
C++ sources, and `--help` is generated from those tables. The helpers
here read the tables straight from the sources and the sections back
from a binary's `--help`, so a test can check that the two agree and
derive its bad-input cases from the help text instead of a hand list.
"""

import glob
import os
import re
import subprocess

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# A value of each kind that cannot parse; text flags take anything.
BAD_VALUE = {"count": "abc", "number": "xyz", "switch": "maybe",
             "choice": "bogus"}


def source_tables():
    """{help section title: (array name, [flag names])} from the sources."""
    arrays, titles = {}, {}
    for path in glob.glob(os.path.join(ROOT, "bench", "*.[ch]*")) + \
            glob.glob(os.path.join(ROOT, "tools", "*.cc")):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for m in re.finditer(r"FlagSpec\s+(\w+)\[\]\s*=\s*\{(.*?)\n\s*\};",
                             text, re.S):
            arrays[m.group(1)] = re.findall(
                r'\{\s*"([^"]+)",\s*FlagKind::', m.group(2))
        for m in re.finditer(
                r'FlagTable\s+\w+\s*=\s*\{\s*"([^"]*)",\s*(\w+)\s*\}', text):
            titles[m.group(1)] = m.group(2)
    return {title: (array, arrays[array]) for title, array in titles.items()}


def flag_kind(value_part):
    """Value kind of a help line's `=N` / `=X` / `[=on|off]` / `=a|b` part."""
    if value_part == "[=on|off]":
        return "switch"
    value = value_part[1:]
    if value == "N":
        return "count"
    if value == "X":
        return "number"
    return "choice" if "|" in value else "text"


def help_sections(binary):
    """Runs `binary --help`: [(title, [(flag name, kind)])] in order."""
    proc = subprocess.run([binary, "--help"], capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise AssertionError(f"--help exited {proc.returncode}: "
                             f"{proc.stderr}")
    sections = []
    for line in proc.stdout.splitlines():
        if line and not line.startswith(" ") and line.endswith(":"):
            sections.append((line[:-1], []))
        elif line.startswith("  --"):
            m = re.match(r"  --([a-z0-9<>-]+)(\[=on\|off\]|=\S+)", line)
            sections[-1][1].append((m.group(1), flag_kind(m.group(2))))
    return sections


def check_help(test, binary, arrays):
    """Asserts `binary --help` lists exactly the tables named by @p arrays,
    in order, with every entry once. Returns [(flag name, kind)]."""
    tables = source_tables()
    sections = help_sections(binary)
    listed = []
    for title, flags in sections:
        test.assertIn(title, tables, "help section without a table")
        listed.append(tables[title][0])
        test.assertEqual([name for name, _ in flags], tables[title][1],
                         f"section {title!r} differs from its table")
    test.assertEqual(listed, arrays)
    flags = [flag for _, section in sections for flag in section]
    names = [name for name, _ in flags]
    test.assertEqual(len(names), len(set(names)), "a flag is listed twice")
    return flags


def check_bad_values(test, binary, flags, extra=()):
    """Each listed count/number/switch/choice flag given a value that
    cannot parse exits 2 with `error:`, before any output or panic.
    @p extra goes first, so a listed flag's bad value overrides it."""
    for name, kind in flags:
        if kind not in BAD_VALUE:
            continue
        arg = "--" + name.replace("<type>", "transfer") + "=" + \
            BAD_VALUE[kind]
        with test.subTest(arg=arg):
            expect_usage_error(test, [binary, *extra, arg])


def expect_usage_error(test, argv):
    """The run exits 2 with `error:` on stderr, prints nothing to stdout
    (it stopped before any simulation) and never panics."""
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    test.assertEqual(proc.returncode, 2, proc.stderr)
    test.assertIn("error:", proc.stderr)
    test.assertNotIn("panic:", proc.stderr)
    test.assertEqual(proc.stdout, "")


def stdout_of(argv):
    """Stdout of a run that must succeed."""
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{argv} exited {proc.returncode}: "
                             f"{proc.stderr}")
    return proc.stdout
