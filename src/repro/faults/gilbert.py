"""Gilbert–Elliott bursty link loss.

The classic two-state Markov channel: a link is either GOOD or BAD; each
step it may flip state (``p_gb`` good→bad, ``p_bg`` bad→good) and each frame
is dropped i.i.d. at the current state's loss rate.  Unlike the repo's
:class:`~repro.core.online.BernoulliLoss`, losses are *correlated in time* —
a link that just dropped a frame is likely to drop the retransmission too,
which is exactly the regime that stresses re-polling and retry budgets.

One :class:`GilbertElliottLoss` instance serves both consumers:

* the abstract scheduler, through the :class:`~repro.core.online.LossModel`
  protocol (``fails(request, hop_index, slot)`` — the chain steps once per
  schedule slot);
* the DES PHY, through the :class:`~repro.radio.channel.RadioMedium`
  ``link_loss`` hook (``frame_fails(receiver, sender, now)`` — the chain
  steps once per elapsed coherence interval).

Each directed link owns an independent chain whose generator is derived from
``(seed, "faults", "link", rx, tx)`` on the dedicated fault stream, so the
order in which links are queried cannot leak randomness between them and
enabling the model never perturbs any other stream of a seeded run.

A duty-cycled link sits silent for hundreds of coherence intervals between
frames, so its chain is advanced in blocks (DESIGN.md §7).  While both flip
probabilities are positive every step draws exactly one uniform, and
``Generator.random(n)`` returns the same doubles as ``n`` scalar calls and
leaves the generator in the same state.  An advance of at least
``_BLOCK_MIN_STEPS`` steps therefore draws its uniforms in one call and
reads the final state off them in closed form: the chain passes through the
same states and every later draw is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.online import LossModel
from ..sim.rng import fault_rng

__all__ = ["GilbertElliottLoss", "LinkChainState"]

_GOOD, _BAD = 0, 1

#: Advances at least this long draw their uniforms in one block.
_BLOCK_MIN_STEPS = 16


@dataclass
class LinkChainState:
    """One directed link's chain: current state and step bookkeeping."""

    rng: np.random.Generator
    state: int = _GOOD
    steps_taken: int = 0
    last_time: float | None = None
    frames_seen: int = 0
    frames_lost: int = 0


class GilbertElliottLoss(LossModel):
    """Per-link two-state bursty loss (see module docstring).

    Parameters mirror :class:`repro.faults.plan.BurstyLinks`; ``seed`` is the
    base seed whose fault stream all link chains derive from.
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.05,
        p_bad_to_good: float = 0.30,
        loss_good: float = 0.0,
        loss_bad: float = 0.6,
        coherence_s: float = 0.02,
        seed: int = 0,
    ):
        for name, v in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if coherence_s <= 0:
            raise ValueError(f"coherence must be > 0 s, got {coherence_s}")
        self.p_gb = float(p_good_to_bad)
        self.p_bg = float(p_bad_to_good)
        self.loss = (float(loss_good), float(loss_bad))
        self.coherence_s = float(coherence_s)
        self.seed = int(seed)
        self._chains: dict[tuple[int, int], LinkChainState] = {}

    def reparameterize(
        self,
        p_good_to_bad: float | None = None,
        p_bad_to_good: float | None = None,
        loss_good: float | None = None,
        loss_bad: float | None = None,
    ) -> None:
        """Swap chain parameters mid-run (slow channel drift, DESIGN.md §11).

        Per-link chain *state* (good/bad, step counters, RNG positions) is
        preserved — only the transition/loss probabilities change, so a link
        mid-burst stays mid-burst under the new fade depth.  Each chain's
        RNG is private and per-link, so a drift epoch cannot leak randomness
        into any other link or stream.
        """
        p_gb = self.p_gb if p_good_to_bad is None else float(p_good_to_bad)
        p_bg = self.p_bg if p_bad_to_good is None else float(p_bad_to_good)
        l_good = self.loss[0] if loss_good is None else float(loss_good)
        l_bad = self.loss[1] if loss_bad is None else float(loss_bad)
        for name, v in (
            ("p_good_to_bad", p_gb),
            ("p_bad_to_good", p_bg),
            ("loss_good", l_good),
            ("loss_bad", l_bad),
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss = (l_good, l_bad)

    # -- chain mechanics ----------------------------------------------------------

    def _chain(self, receiver: int, sender: int) -> LinkChainState:
        key = (int(receiver), int(sender))
        chain = self._chains.get(key)
        if chain is None:
            chain = LinkChainState(rng=fault_rng(self.seed, "link", *key))
            self._chains[key] = chain
        return chain

    def _step(self, chain: LinkChainState, n_steps: int) -> None:
        p_gb, p_bg = self.p_gb, self.p_bg
        if n_steps < _BLOCK_MIN_STEPS or p_gb == 0.0 or p_bg == 0.0:
            # A zero flip skips its draw, so the draw count depends on the path.
            for _ in range(n_steps):
                flip = p_gb if chain.state == _GOOD else p_bg
                if flip > 0.0 and chain.rng.random() < flip:
                    chain.state = _BAD if chain.state == _GOOD else _GOOD
                chain.steps_taken += 1
            return
        # Both probabilities are positive, so every step draws once and one
        # block draw reads the stream exactly as far as the loop.  A draw below
        # both flip probabilities flips either state.  A draw between them flips
        # only the state with the larger one, so either way it settles the chain
        # in the other state (the sink).  Any other draw changes nothing.  The
        # final state is the sink after the last settling draw (the entry state
        # if there is none), flipped once per low draw after it.
        draws = chain.rng.random(n_steps)
        if p_gb <= p_bg:
            low, high, sink = p_gb, p_bg, _GOOD
        else:
            low, high, sink = p_bg, p_gb, _BAD
        flips = draws < low
        settles = np.flatnonzero((draws < high) ^ flips)
        state = chain.state
        if settles.size:
            state = sink
            flips = flips[settles[-1] + 1 :]
        chain.state = state ^ (int(np.count_nonzero(flips)) & 1)
        chain.steps_taken += n_steps

    def _draw_loss(self, chain: LinkChainState) -> bool:
        chain.frames_seen += 1
        p = self.loss[chain.state]
        lost = p > 0.0 and bool(chain.rng.random() < p)
        if lost:
            chain.frames_lost += 1
        return lost

    # -- LossModel protocol (abstract scheduler) -------------------------------------

    def fails(self, request, hop_index: int, slot: int) -> bool:
        """Slot-driven use: advance the hop's link chain to *slot* and draw."""
        receiver = request.path[hop_index + 1]
        sender = request.path[hop_index]
        chain = self._chain(receiver, sender)
        # One chain step per elapsed schedule slot (monotone per link).
        target = max(slot, chain.steps_taken)
        self._step(chain, target - chain.steps_taken)
        return self._draw_loss(chain)

    # -- RadioMedium hook (DES decode path) ------------------------------------------

    def frame_fails(self, receiver: int, sender: int, now: float) -> bool:
        """Time-driven use: advance by elapsed coherence intervals and draw."""
        chain = self._chain(receiver, sender)
        if chain.last_time is None:
            chain.last_time = now
        elapsed = now - chain.last_time
        steps = int(elapsed / self.coherence_s)
        if steps > 0:
            self._step(chain, steps)
            chain.last_time += steps * self.coherence_s
        return self._draw_loss(chain)

    # -- introspection ----------------------------------------------------------------

    def stats(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Per-link ``(frames_seen, frames_lost)`` counters."""
        return {
            key: (c.frames_seen, c.frames_lost) for key, c in self._chains.items()
        }
