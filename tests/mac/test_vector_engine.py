"""Unit regressions for the vector engine's bit-exactness plumbing.

The batch path's never-diverge contract (DESIGN.md §12) hangs on details
that are invisible to normal correctness testing — IEEE summation order,
zero-dt handling, applying a run of slots at once.  These tests pin each one at
the unit level with inputs chosen so any reordering *visibly* changes the
last bits, catching "harmless" refactors (e.g. swapping ``ordered_sum``
or ``row_sum`` for ``ndarray.sum``) long before a golden-fingerprint run
would.
"""

import numpy as np
import pytest

from repro.mac.vector_engine import (
    _LOG_SLOTS,
    _SENDER,
    _STRAGGLER,
    IDLE,
    RX,
    TX,
    VectorPhaseEngine,
    VectorRadioBank,
    ordered_sum,
    row_sum,
)
from repro.radio.energy import EnergyMeter, EnergyParams, RadioState

from .test_engine_parity import straggler_cluster, straggler_positions

# Magnitudes straddling ~2^53 in relative spread: the order in which these
# are added determines which low bits survive, so left-to-right and
# pairwise-tree accumulation give different float results.
ADVERSARIAL = [1e16, 1.0, -1e16, 1.0, 3.0, 1e-8, 7e7, -3.0, 1e16, 1e-8]


def _columns(n_radios=5, seed=0, repeats=30):
    # > 128 terms: numpy's pairwise-summation blocking only reassociates
    # above its block size, so shorter lists would sum sequentially and
    # the divergence test below would lose its teeth.
    rng = np.random.default_rng(seed)
    cols = []
    for base in ADVERSARIAL * repeats:
        cols.append(base * (1.0 + 0.1 * rng.standard_normal(n_radios)))
    return cols


def test_ordered_sum_matches_scalar_left_to_right():
    cols = _columns()
    got = ordered_sum(cols)
    for i in range(cols[0].size):
        acc = float(cols[0][i])
        for col in cols[1:]:
            acc = acc + float(col[i])  # one IEEE add per step, scalar order
        assert got[i] == acc
        assert float(got[i]).hex() == acc.hex()


def test_ordered_sum_diverges_from_pairwise_reduction():
    # The proof the test above has teeth: numpy's reduction reassociates
    # (pairwise summation), which rounds differently on this input.  If
    # this ever starts passing with equality, the adversarial input has
    # gone stale and the left-to-right test no longer guards anything.
    cols = _columns()
    ordered = ordered_sum(cols)
    # The tempting refactor: stack the columns and sum along the fast
    # axis.  That contiguous reduction is where numpy applies pairwise
    # (blocked) summation, so the last bits differ.
    stacked = np.ascontiguousarray(np.vstack(cols).T)
    pairwise = stacked.sum(axis=1)
    assert not np.array_equal(ordered, pairwise)


def test_row_sum_adds_down_the_time_axis_left_to_right():
    # The batch apply sums each radio's per-step energies down axis 0 of a
    # (steps x radios) array; each column must get the scalar meter's
    # sequential adds, and the same rows summed pairwise must not.
    rows = np.vstack(_columns())
    got = row_sum(rows)
    for i in range(rows.shape[1]):
        acc = float(rows[0, i])
        for x in rows[1:, i]:
            acc = acc + float(x)
        assert float(got[i]).hex() == acc.hex()
    assert not np.array_equal(got, np.ascontiguousarray(rows.T).sum(axis=1))


def test_ordered_sum_empty_and_ownership():
    assert ordered_sum([]) is None
    first = np.array([1.0, 2.0])
    out = ordered_sum([first])
    assert np.array_equal(out, first)
    out[0] = 99.0  # must be a copy, never a view into the cached column
    assert first[0] == 1.0


class _StubTrx:
    """Just enough transceiver surface for VectorRadioBank."""

    def __init__(self, params, state, last_change, consumed):
        self.meter = EnergyMeter(params=params)
        self.meter.state = state
        self.meter.last_change = last_change
        self.meter.consumed_j = consumed
        self._listen_since = last_change
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_garbled = 0


def bank_shift(bank, idx: np.ndarray, now: float, prior: int, new: int) -> None:
    """Replay ``change_state(new, now)`` for radios *idx* of *bank*, all
    currently in state *prior* — one meter step of one slot, the update
    ``VectorPhaseEngine._apply_log`` makes for a run of slots at once.

    ``consumed[i] += power * dt`` is computed per element — one IEEE
    multiply and one IEEE add per radio, the same two roundings the
    scalar meter performs (numpy does not fuse them).  ``dt == 0`` adds
    an exact ``+0.0``, matching the scalar no-op branch bit-for-bit.
    """
    if idx.size == 0:
        return
    dt = now - bank.last_change[idx]
    bank.consumed[idx] += bank.ptab[prior, idx] * dt
    bank.dwell[prior, idx] += dt
    bank.last_change[idx] = now
    bank.state[idx] = new


def test_bank_shift_replays_meter_bit_for_bit():
    # Heterogeneous power params + an awkward consumed_j offset so the
    # multiply-add rounding is exercised, not just zeros.
    radios = []
    meters = []
    for i in range(6):
        params = EnergyParams(idle_w=13.5e-3 * (1 + 0.013 * i))
        radios.append(_StubTrx(params, RadioState.IDLE, 0.1 + i * 1e-7, 0.3 + i * 0.07))
        ref = EnergyMeter(params=params)
        ref.state = RadioState.IDLE
        ref.last_change = 0.1 + i * 1e-7
        ref.consumed_j = 0.3 + i * 0.07
        meters.append(ref)

    bank = VectorRadioBank(radios)
    bank.load()

    t1 = 0.1 + 1.0 / 3.0  # not exactly representable: real rounding happens
    bank_shift(bank, np.arange(6), t1, IDLE, RX)
    # dt == 0 second shift on radio 0: exact +0.0, same as the scalar
    # meter's else-branch (which skips the add entirely).
    bank_shift(bank, np.array([0]), t1, RX, RX)
    bank.store()

    for i, (trx, ref) in enumerate(zip(radios, meters)):
        ref.change_state(RadioState.RX, t1)
        if i == 0:
            ref.change_state(RadioState.RX, t1)
        assert trx.meter.consumed_j.hex() == ref.consumed_j.hex()
        assert trx.meter.last_change == ref.last_change
        assert trx.meter.state is ref.state
        assert trx.meter.dwell_s == ref.dwell_s


def test_bank_shift_empty_index_is_noop():
    radios = [_StubTrx(EnergyParams(), RadioState.IDLE, 0.0, 0.0)]
    bank = VectorRadioBank(radios)
    bank.load()
    before = bank.consumed.copy()
    bank_shift(bank, np.array([], dtype=np.int64), 5.0, 1, 2)
    assert np.array_equal(bank.consumed, before)


# -- per-slot engine coverage --------------------------------------------------


def test_multicluster_slots_run_on_the_batch_engine():
    """Channel-mode clusters on a shared medium batch nearly every slot."""
    from repro.net import MultiClusterConfig, run_multicluster_simulation

    res = run_multicluster_simulation(MultiClusterConfig(n_cycles=4, seed=0))
    for mac in res.macs:
        assert mac.vector_slots >= 0.9 * (mac.vector_slots + mac.scalar_slots)


def test_phase_cut_by_the_run_end_matches_the_event_path():
    """Half-second cycles overrun: the run ends inside a data phase, and a
    slot whose window reaches past that end takes the event path."""
    from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation

    out = {}
    for engine in ("scalar", "vector"):
        res = run_polling_simulation(
            PollingSimConfig(
                n_sensors=25, n_cycles=3, seed=3, rate_bps=400.0,
                cycle_length=0.5, engine=engine,
            )
        )
        energies = [trx.meter.consumed_j.hex() for trx in res.phy.transceivers]
        out[engine] = (energies, res.packets_delivered, res.mac.vector_slots > 0)
    assert out["vector"][:2] == out["scalar"][:2]
    assert out["vector"][2] and not out["scalar"][2]



@pytest.mark.parametrize("frame_error_rate", [0.0, 0.1])
def test_apply_log_matches_a_per_slot_replay(frame_error_rate):
    """More than two logs' worth of slots, with and without a data exchange,
    with a straggler, on a clean and a lossy medium, against one
    ``bank_shift`` per slot step."""
    _, phy, mac = straggler_cluster("vector", frame_error_rate)
    phy.medium.update_positions(straggler_positions(phy.medium))
    engine = VectorPhaseEngine(mac, mac.sizes.data)
    bank, head = engine.bank, engine.head
    bank.load()
    n = bank.consumed.size
    # Uneven start values, so every add rounds.
    rng = np.random.default_rng(7)
    bank.last_change[:] = rng.uniform(0.0, 1.0, n)
    bank.consumed[:] = rng.uniform(0.0, 0.5, n)
    bank.dwell[:] = rng.uniform(0.0, 2.0, (4, n))
    ref = VectorRadioBank(phy.transceivers)
    ref.load()
    for name in ("last_change", "consumed", "dwell", "listen_since"):
        getattr(ref, name)[:] = getattr(bank, name)
    engine._bind_caches()
    engine.loaded = True
    pc = engine._build_poll_cache()
    keys = [(0,), (1,), (0, 3), (2, 4)]
    groups = [(key, engine._build_group_cache(key, pc)) for key in keys]
    assert any((gc.role == _STRAGGLER).any() for _, gc in groups)
    polled = np.nonzero(pc.polled)[0]
    polled = polled[polled != head]
    at_head = np.array([head])

    def decode(cands, static_coll, sender, now):
        if engine.dynamic:
            ok, _ = engine._draw_outcomes(cands, sender, now)
        else:
            ok = cands
        ref.frames_received[np.array(ok, dtype=np.intp)] += 1
        lost = [c for c in cands if c not in ok]
        ref.frames_garbled[np.array(lost, dtype=np.intp)] += 1
        ref.frames_garbled += static_coll

    n_slots = 2 * _LOG_SLOTS + 23
    t0 = 1.5
    for _ in range(n_slots):
        pick = rng.integers(len(groups) + 1)
        key, gc = groups[pick - 1] if pick else ((), None)
        t1 = t0 + engine.air_poll
        t_tx = t1 + engine.turnaround
        t2 = t_tx + engine.air_payload
        bank_shift(ref, polled, t0, IDLE, RX)
        bank_shift(ref, at_head, t0, IDLE, TX)
        bank_shift(ref, polled, t1, RX, IDLE)
        bank_shift(ref, at_head, t1, TX, IDLE)
        ref.listen_since[head] = t1
        ref.frames_sent[head] += 1
        decode(pc.ok_nodes, pc.counts[2], head, t1)
        if gc is not None:
            senders = np.nonzero(gc.role == _SENDER)[0]
            listeners = np.nonzero(gc.role > _SENDER)[0]
            bank_shift(ref, senders, t_tx, IDLE, TX)
            bank_shift(ref, listeners, t_tx, IDLE, RX)
            for sender, (_, ok_list, _) in zip(key, gc.records):
                decode(ok_list, 0, sender, t2)
            ref.frames_garbled += gc.counts[2]
            bank_shift(ref, senders, t2, TX, IDLE)
            bank_shift(ref, listeners, t2, RX, IDLE)
            ref.listen_since[senders] = t2
            ref.frames_sent[senders] += 1
        engine._log_slot(t0, gc)
        # Slots follow back to back, or after a gap.
        t0 = t0 + engine.slot_time + (0.25 if rng.random() < 0.1 else 0.0)
    assert len(engine._log) == n_slots % _LOG_SLOTS
    engine._apply_log()
    for name in (
        "consumed", "dwell", "last_change", "listen_since",
        "frames_sent", "frames_received", "frames_garbled",
    ):
        assert getattr(bank, name).tobytes() == getattr(ref, name).tobytes(), name
