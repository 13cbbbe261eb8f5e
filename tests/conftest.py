from hypothesis import assume, settings, strategies as st

import asvinit
from asvinit.arch import validate

# Tier-1 runs are reproducible: the same examples every run, none replayed
# from a local example database.
settings.register_profile(
    "tier1", derandomize=True, database=None, max_examples=100, deadline=None
)
settings.load_profile("tier1")


def small_net(in_shape, conv_layers, head=3):
    """conv_layers: list of (channels, kernel, stride, padding, pool)."""
    layers = []
    for ch, k, s, p, pool in conv_layers:
        layers.append(asvinit.LayerSpec(
            kind="Conv", out_channels=ch, kernel=(k, k), stride=(s, s),
            padding=(p, p), pool=pool,
        ))
    layers.append(asvinit.LayerSpec(kind="FullyConnected", out_channels=head,
                                    activation="Identity"))
    a = asvinit.Architecture(name="small", input_shape=in_shape,
                             layers=tuple(layers))
    validate(a)
    return a


POOLS = [
    None,
    asvinit.Pool(kind="Max", size=(2, 2)),
    asvinit.Pool(kind="Average", size=(2, 2)),
    asvinit.Pool(kind="GlobalAverage"),
]
OVERLAPPING_AVERAGE = asvinit.Pool(kind="Average", size=(3, 3), stride=(2, 2), padding=(1, 1))
OVERLAPPING_MAX = asvinit.Pool(kind="Max", size=(3, 3), stride=(1, 1))


def dead_tap_chain(pool):
    """A 5x5 pad-2 stride-2 conv on a 2x2 map (live taps 2..3 per axis) and
    a 3x3 pad-1 conv on a 1x1 map (live tap 1 per axis), after a pooled
    layer whose taps are all live."""
    return small_net((4, 4, 2), [(3, 3, 1, 1, pool), (4, 5, 2, 2, None), (3, 3, 1, 1, POOLS[3])])


@st.composite
def small_chains(draw):
    """Valid chains of one or two small conv layers (every pool kind,
    overlapping windows included) and an FC head."""
    width = draw(st.integers(4, 9))
    depth = draw(st.integers(1, 3))
    layers = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 3))
        layers.append((
            draw(st.integers(1, 3)), k, draw(st.integers(1, 2)),
            draw(st.integers(0, k - 1)),
            draw(st.sampled_from(POOLS + [OVERLAPPING_AVERAGE, OVERLAPPING_MAX])),
        ))
    try:
        return small_net((width, width, depth), layers, head=draw(st.integers(1, 3)))
    except asvinit.ValidationError:
        assume(False)


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
