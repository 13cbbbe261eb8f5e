from hypothesis import settings

# Tier-1 runs are reproducible: the same examples every run, none replayed
# from a local example database.
settings.register_profile(
    "tier1", derandomize=True, database=None, max_examples=100, deadline=None
)
settings.load_profile("tier1")

_criterion_lines = []


def record_criterion(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number}: {status} - {label}"
    if detail:
        line += f" ({detail})"
    _criterion_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
