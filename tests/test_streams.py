"""A canary for numpy's bit streams: the draw pins of the samplers and
estimators hold only while numpy's Generator methods keep their streams."""

import hashlib

import numpy as np

# sha256 of each method's draw below, taken with numpy 2.4.6; NEP 19 lets
# a numpy release change the stream of any Generator method
STREAM_SHA256 = {
    "random":
        "fbaa761852fb74ef5c0294c2092f5676f8a37e4ba26ba9fa9b88d1cbda59a102",
    "standard_exponential":
        "5cb59aee24a6bda0418d7855a5e6bbbd39a4983e95615dfec43b5089c931f1a8",
    "standard_gamma":
        "0a4fcb7cfc391276d745e29c66093a3c2967ab595cb87b62464c9b46406ad3e1",
    "integers":
        "d76df12be2f3ab84afb8086d35ecc699979da33a53cd7e15f999fb3f1c1cf111",
    # n min(p, 1 - p) on both sides of 30, where numpy switches from
    # inversion to BTPE, and p on both sides of 1/2
    "binomial":
        "b81df88f3fb7a37a9740f904894120fe68e2abc1c6694b78b328d6ed9bfe9563",
    "spawn":
        "2e25cd9081062dfd70f25ff8905f3d39cd38973c04438bb34fb27520c6160fb8",
}


def _draw(method: str) -> np.ndarray:
    g = np.random.Generator(np.random.PCG64(np.random.SeedSequence((41, 0))))
    if method == "random":
        return g.random(64)
    if method == "standard_exponential":
        return g.standard_exponential(64)
    if method == "standard_gamma":
        return g.standard_gamma([0.5, 1.0, 7.0, 64.0, 4472.0], (16, 5))
    if method == "integers":
        return g.integers(2 ** 64, size=64, dtype=np.uint64)
    if method == "binomial":
        return g.binomial([10, 100, 59, 61, 1000, 1000, 100_000],
                          [0.3, 0.9, 0.5, 0.5, 0.01, 0.97, 0.4], (16, 7))
    return np.stack([child.random(8) for child in g.spawn(3)])


def test_numpy_generator_streams_are_the_pinned_ones():
    changed = [method for method, want in STREAM_SHA256.items()
               if hashlib.sha256(_draw(method).tobytes()).hexdigest() != want]
    assert not changed, (
        f"numpy {np.__version__} changed the stream of Generator "
        f"{', '.join(changed)}; the draw pins (ENGINE_SHA256, LEAP_SHA256, "
        "MARKCHAIN_SHA256, PINNED_SPLITTING, PINNED_STDOUT and criteria 4 "
        "and 5) fail for that reason, not for a change in bootperc")
