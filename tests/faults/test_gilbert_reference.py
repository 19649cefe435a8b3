"""Block-advanced Gilbert–Elliott chains against a scalar-loop reference.

``ScalarReference`` keeps the chain step as it was written first: one scalar
``rng.random()`` per coherence interval, skipped in a state whose flip
probability is 0.  Seeded random query sequences over several links drive
both models through ``frame_fails`` and ``fails`` with advances of 0, 1,
15, 16, 17, 400 and 5,000 steps, flip probabilities of 0 and 1, and
mid-run ``reparameterize`` calls (among them a ``p_gb`` clipped to 0 the way
``ChannelDrift`` clips it at its troughs).  Every loss outcome and every
link's state, counters, clock and generator state must be identical.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults.gilbert import _BAD, _GOOD, GilbertElliottLoss

ADVANCES = (0, 1, 15, 16, 17, 400, 5000)
LINKS = ((1, 0), (2, 1), (0, 2), (3, 1), (1, 3))  # (receiver, sender)
COHERENCE_S = 0.02
SEEDS = range(16)
N_OPS = 120
# (p_gb, p_bg) pairs a reparameterize may switch to: both flip probabilities
# at 0 and at 1, alone and together.
FLIP_PAIRS = (
    (0.05, 0.3),
    (0.3, 0.05),
    (0.0, 0.3),
    (0.05, 0.0),
    (0.0, 0.0),
    (1.0, 0.3),
    (0.2, 1.0),
    (1.0, 1.0),
    (1.0, 0.0),
    (0.0, 1.0),
)
LOSS_PAIRS = ((0.0, 0.6), (0.1, 0.9), (0.0, 1.0), (0.3, 0.0))


class ScalarReference(GilbertElliottLoss):
    """One scalar draw per step, however long the advance."""

    def _step(self, chain, n_steps):
        for _ in range(n_steps):
            flip = self.p_gb if chain.state == _GOOD else self.p_bg
            if flip > 0.0 and chain.rng.random() < flip:
                chain.state = _BAD if chain.state == _GOOD else _GOOD
            chain.steps_taken += 1


def _chain_view(chain):
    return (
        chain.state,
        chain.steps_taken,
        chain.last_time,
        chain.frames_seen,
        chain.frames_lost,
        chain.rng.bit_generator.state,
    )


def _scenario(seed: int):
    """A random list of queries, drift epochs and reparameterizations."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(N_OPS):
        roll = rng.random()
        link = LINKS[int(rng.integers(len(LINKS)))]
        advance = ADVANCES[int(rng.integers(len(ADVANCES)))]
        if roll < 0.45:
            # Land strictly inside the interval so float rounding cannot
            # move the step count; an advance of 0 sometimes repeats the
            # link's last instant exactly.
            exact = advance == 0 and rng.random() < 0.5
            offset = 0.0 if exact else rng.uniform(0.1, 0.9)
            ops.append(("frame", link, advance, offset))
        elif roll < 0.85:
            # A slot behind the chain's step count advances it by 0.
            ops.append(("slot", link, advance, int(rng.integers(-3, 1))))
        elif roll < 0.93:
            # ChannelDrift: clip(base + amplitude * sin(.), 0, 1); at a trough
            # p_gb clips to exactly 0.
            s = float(np.sin(rng.uniform(0.0, 2.0 * np.pi)))
            ops.append(
                (
                    "drift",
                    min(1.0, max(0.0, 0.05 + 0.2 * s)),
                    min(1.0, max(0.0, 0.6 + 0.5 * s)),
                )
            )
        else:
            flips = FLIP_PAIRS[int(rng.integers(len(FLIP_PAIRS)))]
            losses = LOSS_PAIRS[int(rng.integers(len(LOSS_PAIRS)))]
            ops.append(("reparameterize", *flips, *losses))
    return ops


def _drive(model_cls, seed: int):
    """Run one scenario on a fresh model; returns (observation, coverage)."""
    model = model_cls(
        p_good_to_bad=0.05,
        p_bad_to_good=0.3,
        loss_good=0.0,
        loss_bad=0.6,
        coherence_s=COHERENCE_S,
        seed=seed,
    )
    outcomes = []
    coverage = Counter()
    for op in _scenario(seed):
        kind = op[0]
        if kind == "frame":
            _, (rx, tx), advance, offset = op
            chain = model._chain(rx, tx)
            start = chain.last_time
            if start is None:
                start, advance = 1.0, 0  # the first frame on a link starts its clock
            before = chain.steps_taken
            outcomes.append(
                model.frame_fails(rx, tx, start + (advance + offset) * COHERENCE_S)
            )
        elif kind == "slot":
            _, (rx, tx), advance, behind = op
            chain = model._chain(rx, tx)
            before = chain.steps_taken
            slot = before + advance if advance else before + behind
            request = SimpleNamespace(path=(tx, rx))
            outcomes.append(model.fails(request, 0, slot))
        elif kind == "drift":
            model.reparameterize(p_good_to_bad=op[1], loss_bad=op[2])
            coverage["p_gb_clipped_to_0"] += op[1] == 0.0
            continue
        else:
            model.reparameterize(*op[1:])
            continue
        taken = chain.steps_taken - before
        assert taken == advance, f"{kind} advanced {taken} steps, wanted {advance}"
        coverage[(kind, taken)] += 1
        coverage[("zero_flip", taken)] += min(model.p_gb, model.p_bg) == 0.0
        coverage[("unit_flip", taken)] += max(model.p_gb, model.p_bg) == 1.0
        coverage[("state", chain.state)] += 1
        outcomes.append(_chain_view(chain))
    chains = {key: _chain_view(c) for key, c in sorted(model._chains.items())}
    coverage["lost"] = sum(o is True for o in outcomes)
    return (outcomes, chains), coverage


@pytest.mark.parametrize("seed", SEEDS)
def test_block_advance_matches_scalar_reference(seed):
    (outcomes, chains), _ = _drive(GilbertElliottLoss, seed)
    (ref_outcomes, ref_chains), _ = _drive(ScalarReference, seed)
    for i, (got, want) in enumerate(zip(outcomes, ref_outcomes)):
        assert got == want, f"seed {seed}: query record {i} diverged"
    assert len(outcomes) == len(ref_outcomes)
    assert chains == ref_chains


@pytest.mark.parametrize("p_gb, p_bg", FLIP_PAIRS)
@pytest.mark.parametrize("entry", (_GOOD, _BAD))
def test_every_advance_from_either_state_matches(p_gb, p_bg, entry):
    # One advance of each length from a fixed entry state, then a loss draw
    # that reads the stream right where the advance left it.
    for advance in ADVANCES:
        views = []
        for model_cls in (GilbertElliottLoss, ScalarReference):
            model = model_cls(p_gb, p_bg, loss_good=0.5, loss_bad=0.5, seed=advance)
            chain = model._chain(1, 0)
            chain.state = entry
            lost = model.fails(SimpleNamespace(path=(0, 1)), 0, advance)
            views.append((lost, _chain_view(chain)))
        assert views[0] == views[1], f"advance {advance}"


def test_block_draw_reads_the_stream_like_scalar_draws():
    # The block path rests on this: n scalar draws and one draw of n give
    # the same doubles and leave the generator in the same state.
    for n in ADVANCES:
        scalar, block = np.random.default_rng(n), np.random.default_rng(n)
        assert [scalar.random() for _ in range(n)] == block.random(n).tolist()
        assert scalar.bit_generator.state == block.bit_generator.state


def test_reference_scenarios_exercise_every_case():
    total = Counter()
    for seed in SEEDS:
        total.update(_drive(GilbertElliottLoss, seed)[1])
    for kind in ("frame", "slot"):
        for advance in ADVANCES:
            assert total[(kind, advance)] > 0, (kind, advance)
    for advance in (16, 400, 5000):
        assert total[("zero_flip", advance)] > 0, ("zero_flip", advance)
        assert total[("unit_flip", advance)] > 0, ("unit_flip", advance)
    for key in ("p_gb_clipped_to_0", ("state", _GOOD), ("state", _BAD), "lost"):
        assert total[key] > 0, key
