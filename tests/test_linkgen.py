"""Link generation and the authorised-link log against per-pair, per-VM and
per-link references.

The engine draws each kind of link's uniforms in one call, scans on from a
drawn start that misses with array passes, builds the log in blocks of
source rows and checks a batch of links with one search of the log.  The
references below are the plain loops those replaced: one draw call per VM,
one draw per cross-user pair and one check per link.  The array versions
must return the same links in the same order and leave the random stream in
the same state.  The log drawn with a helper thread taking blocks from the
back, each from a jumped-ahead copy of the stream, must equal the log drawn
on the calling thread alone.
"""

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscmc import engine
from oscmc.engine import (
    Simulation, benign_links, inject_malicious_behavior, with_cross_user_grants,
)
from oscmc.model import Placement, ResourceVector, Server
from oscmc.monitor import Ivcl, UnregisteredVmError
from oscmc.scenario import Scenario

DEMAND = ResourceVector(1.0, 1.0, 1.0)


def reference_inject(
    placement, malicious_vms, benign_vms, suspended, colocated_rate, remote_rate, rng
):
    benign_alive = [v for v in benign_vms if v not in suspended]
    benign_set = set(benign_alive)
    links = []
    for vm in malicious_vms:
        u1, u2, u3, u4 = rng.random(4)
        if vm in suspended:
            continue
        host = placement.server_of(vm)
        if host is None:
            continue
        if u1 < colocated_rate:
            local = [
                v
                for v in placement.vms_on(host).tolist()
                if v != vm and v in benign_set
            ]
            if local:
                links.append((vm, local[int(u2 * len(local)) % len(local)]))
        if u3 < remote_rate and benign_alive:
            start = int(u4 * len(benign_alive)) % len(benign_alive)
            for off in range(len(benign_alive)):
                cand = benign_alive[(start + off) % len(benign_alive)]
                if cand != vm and placement.server_of(cand) not in (None, host):
                    links.append((vm, cand))
                    break
    return links


def reference_benign(placement, benign_vms, suspended, authorized_dsts, rate, rng):
    links = []
    for vm in benign_vms:
        u1, u2 = rng.random(2)
        if vm in suspended:
            continue
        if u1 >= rate:
            continue
        dsts = authorized_dsts[vm]
        if not dsts:
            continue
        start = int(u2 * len(dsts)) % len(dsts)
        for off in range(len(dsts)):
            cand = dsts[(start + off) % len(dsts)]
            if cand not in suspended and placement.server_of(cand) is not None:
                links.append((vm, cand))
                break
    return links


def _placement(hosts: dict[int, int | None], servers: int) -> Placement:
    cap = ResourceVector(1000.0, 1000.0, 1000.0)
    placement = Placement({sid: Server(sid, cap) for sid in range(1, servers + 1)})
    for vm, sid in hosts.items():
        if sid is not None:
            placement.assign(vm, DEMAND, sid)
    return placement


def _log(vms, grants) -> Ivcl:
    ivcl = Ivcl()
    for vm in vms:
        ivcl.register(vm)
    for a, b in grants:
        ivcl.grant(a, b)
    return ivcl


def _rows(ivcl: Ivcl) -> dict[int, list[int]]:
    ids, indptr, indices = ivcl.csr()
    return {
        vm: indices[indptr[i] : indptr[i + 1]].tolist()
        for i, vm in enumerate(ids.tolist())
    }


def _pairs(links: np.ndarray) -> list[tuple[int, int]]:
    """The rows of a generator's ``(n, 2)`` intp array as (src, dst)."""
    assert links.dtype == np.intp and links.ndim == 2 and links.shape[1] == 2
    return [tuple(link) for link in links.tolist()]


rates = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def linkgen_instances(draw):
    n = draw(st.integers(1, 16))
    vms = list(range(1, n + 1))
    servers = draw(st.integers(1, 4))
    hosts = dict(
        zip(vms, draw(st.lists(st.none() | st.integers(1, servers), min_size=n, max_size=n)))
    )
    malicious = draw(st.sets(st.sampled_from(vms)))
    pairs = st.tuples(st.sampled_from(vms), st.sampled_from(vms)).filter(
        lambda p: p[0] != p[1]
    )
    benign = [v for v in vms if v not in malicious]
    if draw(st.booleans()):
        # Overlapping lists, as a caller may pass: an attacker must not
        # pick itself, co-located or remote.
        benign = sorted(draw(st.sets(st.sampled_from(vms))))
    return dict(
        placement=_placement(hosts, servers),
        malicious=sorted(malicious),
        benign=benign,
        suspended=draw(st.sets(st.sampled_from(vms))),
        ivcl=_log(vms, draw(st.sets(pairs, max_size=60))),
        rates=draw(st.tuples(rates, rates, rates)),
        seed=draw(st.integers(0, 2**32 - 1)),
        form=draw(st.sampled_from(["lists", "arrays"])),
    )


def _as_passed(form, malicious, benign):
    """The VM lists as lists, or as the engine passes them: int arrays."""
    if form == "lists":
        return malicious, benign
    return tuple(np.array(vms, dtype=np.intp) for vms in (malicious, benign))


@settings(max_examples=300, deadline=None)
@given(linkgen_instances())
def test_array_link_generation_equals_per_vm_loops(case):
    rngs = [np.random.default_rng(case["seed"]) for _ in range(2)]
    for _ in range(2):  # the stream must stay aligned from one interval to the next
        _assert_generators_equal_loops(case, case["suspended"], case["form"], *rngs)


def _assert_generators_equal_loops(case, suspended, form, rng, ref_rng):
    """One interval of both generators, with the VM lists passed in ``form``,
    equals the per-VM loops and leaves the two streams in one state."""
    placement, ivcl = case["placement"], case["ivcl"]
    benign_rate, colocated_rate, remote_rate = case["rates"]
    malicious, benign = _as_passed(form, case["malicious"], case["benign"])
    attacks = inject_malicious_behavior(
        placement, malicious, benign, suspended, colocated_rate, remote_rate, rng
    )
    assert _pairs(attacks) == reference_inject(
        placement, case["malicious"], case["benign"], suspended,
        colocated_rate, remote_rate, ref_rng,
    )
    links = benign_links(placement, benign, suspended, ivcl, benign_rate, rng)
    rows = {vm: sorted(ivcl.authorized_dsts(vm)) for vm in case["benign"]}
    assert _pairs(links) == reference_benign(
        placement, case["benign"], suspended, rows, benign_rate, ref_rng
    )
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def state_walks(draw):
    """A placement and a log over VMs 1 to n, attackers of which one is also
    listed as benign, and a sequence of changes to the placement, the
    suspended set and the log."""
    n = draw(st.integers(2, 12))
    vms = list(range(1, n + 1))
    servers = draw(st.integers(1, 4))
    hosts = dict(
        zip(vms, draw(st.lists(st.none() | st.integers(1, servers), min_size=n, max_size=n)))
    )
    malicious = sorted(draw(st.sets(st.sampled_from(vms), min_size=1)))
    benign = sorted({v for v in vms if v not in malicious} | {malicious[0]})
    pairs = st.tuples(st.sampled_from(vms), st.sampled_from(vms)).filter(
        lambda p: p[0] != p[1]
    )
    vm, sid = st.sampled_from(vms), st.integers(1, servers)
    changes = st.lists(
        st.tuples(st.just("assign"), vm, sid)
        | st.tuples(st.just("move"), vm, sid)
        | st.tuples(st.just("remove"), vm)
        | st.tuples(st.just("suspend"), st.sets(st.sampled_from(vms)))
        | st.tuples(st.just("grant"), pairs),
        min_size=1,
        max_size=10,
    )
    return dict(
        placement=_placement(hosts, servers),
        malicious=malicious,
        benign=benign,
        ivcl=_log(vms, draw(st.sets(pairs, max_size=30))),
        rates=draw(st.tuples(rates, rates, rates)),
        changes=draw(changes),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(state_walks())
def test_link_generation_follows_placement_suspension_and_log_changes(case):
    """What link generation keeps between calls, per placement state,
    attacker and unsuspended benign VMs, and per log state, is never served
    stale: after each change (a VM assigned, moved or removed, another
    suspended set, a grant after a query) both generators equal the per-VM
    loops, with the random stream aligned."""
    placement, ivcl = case["placement"], case["ivcl"]
    rngs = [np.random.default_rng(case["seed"]) for _ in range(2)]
    suspended: set[int] = set()
    for kind, *args in [("query",)] + case["changes"]:
        if kind in ("assign", "move", "remove"):
            placed = placement.server_of(args[0]) is not None
            if kind == "assign" and not placed:
                placement.assign(args[0], DEMAND, args[1])
            elif kind != "assign" and placed:
                getattr(placement, kind)(*args)
        elif kind == "suspend":
            suspended = args[0]
        elif kind == "grant":
            ivcl.grant(*args[0])  # merged into the rows at the next query
        # Id arrays of the same values at every call, as the engine passes them.
        _assert_generators_equal_loops(case, suspended, "arrays", *rngs)


@pytest.mark.parametrize(
    "malicious, suspended",
    [
        ([], set()),  # no hostile VM
        ([1, 4], {2, 3, 5, 6}),  # no unsuspended benign VM
        ([1, 4], {1, 2, 3, 4, 5, 6}),  # every VM suspended
        ([1, 2, 3, 4, 5, 6], set()),  # no benign VM at all
    ],
    ids=["no-hostile", "no-benign-left", "all-suspended", "no-benign"],
)
def test_link_generation_over_empty_populations(malicious, suspended):
    """Populations with nothing to link still take every draw, and give the
    reference links, whichever form the VM lists take."""
    placement = _placement({1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 2}, 2)
    benign = [v for v in range(1, 7) if v not in malicious]
    ivcl = _log(range(1, 7), [(a, b) for a in range(1, 7) for b in range(1, 7) if a != b])
    rows = {vm: sorted(ivcl.authorized_dsts(vm)) for vm in benign}
    for form in ("lists", "arrays"):
        hostile, benign_ids = _as_passed(form, malicious, benign)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        attacks = inject_malicious_behavior(
            placement, hostile, benign_ids, suspended, 1.0, 1.0, rng
        )
        assert _pairs(attacks) == reference_inject(
            placement, malicious, benign, suspended, 1.0, 1.0, ref
        )
        links = benign_links(placement, benign_ids, suspended, ivcl, 1.0, rng)
        assert _pairs(links) == reference_benign(placement, benign, suspended, rows, 1.0, ref)
        assert rng.bit_generator.state == _after_draws(3, 4 * len(malicious) + 2 * len(benign))
        if len(benign) == len(suspended & set(benign)):
            assert attacks.size == links.size == 0


def test_benign_link_scans_on_from_a_suspended_first_candidate():
    """VM 1's row is [2, 3, 4, 6], with 6 not placed.  When the drawn start
    is suspended or unplaced, the link goes to the next usable destination
    after it, wrapping around; with none usable, or an empty row (VM 5), no
    link opens, but the draws are still taken."""
    placement = _placement({1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: None}, 2)
    ivcl = _log(range(1, 7), [(1, 2), (1, 3), (1, 4), (1, 6)])
    row = [2, 3, 4, 6]
    for seed in range(16):
        start = int(np.random.default_rng(seed).random(2)[1] * 4) % 4
        rotation = [row[(start + off) % 4] for off in range(4)]
        for suspended in ({rotation[0]}, set(rotation[:2]), {2, 3, 4}):
            usable = [v for v in rotation if v not in suspended and v != 6]
            rng = np.random.default_rng(seed)
            links = benign_links(placement, [1, 5], suspended, ivcl, 1.0, rng)
            assert _pairs(links) == [(1, v) for v in usable[:1]]
            assert rng.bit_generator.state == _after_draws(seed, 4)


def _after_draws(seed: int, n: int) -> dict:
    rng = np.random.default_rng(seed)
    rng.random(n)
    return rng.bit_generator.state


@st.composite
def populations(draw):
    """A scenario whose set-up stream is untouched until the log is drawn."""
    vms = draw(st.integers(1, 16))
    fixed_users, users = None, None
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(1, vms), min_size=vms, max_size=vms))
        fixed_users = {}
        for vm, label in enumerate(labels, start=1):
            fixed_users.setdefault(label, []).append(vm)
    else:
        users = draw(st.none() | st.integers(1, vms))
    return Scenario(
        servers=vms,
        vms=vms,
        users=users,
        fixed_users=fixed_users,
        fixed_malicious_users=[],
        vuln_score_fixed=5.0,
        intervals=1,
        seed=draw(st.integers(0, 2**16)),
        cross_user_auth_rate=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
    )


@settings(max_examples=150, deadline=None)
@given(populations(), st.integers(1, 40))
def test_log_build_equals_pairwise_reference(sc, block):
    """Over any user partition and any block size, the log holds every
    intra-user pair and the cross-user pairs of one draw per pair in (a, b)
    id order, and leaves the set-up stream where that draw does."""
    with mock.patch.object(engine, "_DRAW_BLOCK", block):
        _assert_pairwise_log(sc, Simulation(sc))


@settings(max_examples=60, deadline=None)
@given(populations(), st.integers(1, 40))
def test_log_that_outgrows_its_room_equals_pairwise_reference(sc, block):
    """With no room reserved, every block that grants anything grows the
    log's key array, and the log is still the pairwise reference's."""
    with mock.patch.object(engine, "_DRAW_BLOCK", block), \
            mock.patch.object(engine, "_GRANT_SLACK", -(2**40)):
        _assert_pairwise_log(sc, Simulation(sc))


class _Helper(ThreadPoolExecutor):
    """One worker thread, which starts the log's shared draw only once
    ``start`` is set; ``shared`` is that draw's future."""

    def __init__(self):
        super().__init__(1)
        self.start, self.shared = threading.Event(), None

    def submit(self, fn, *args):
        super().submit(self.start.wait, 60)
        self.shared = super().submit(fn, *args)
        return self.shared


class _PacedRng:
    """Draws with ``rng``, running ``before(k)`` ahead of its ``k``-th
    ``random`` call, which is its thread's ``k``-th block."""

    def __init__(self, rng, before):
        self.bit_generator, self._rng, self._before, self.calls = rng.bit_generator, rng, before, 0

    def random(self, size):
        self.calls += 1
        self._before(self.calls)
        return self._rng.random(size)


@settings(max_examples=150, deadline=None)
@given(
    populations(), st.integers(1, 40), st.sampled_from([0.05, 0.5, 1.0]),
    st.sampled_from(["idle", "first", "never"]) | st.integers(2, 6), st.booleans(),
)
def test_log_drawn_on_two_threads_equals_the_one_thread_draw(sc, block, rate, joins, roomless):
    """Whenever the helper joins, at once (``idle``), after the calling
    thread has drawn 1 to 5 blocks, never, or with the calling thread
    waiting for it to draw every block but the first, the log's keys, their
    dtype and the whole state of the set-up stream, a buffered 32-bit half
    included, are those of the draw on the calling thread alone, also when
    no room is reserved and every block is written apart."""
    sim = Simulation(dataclasses.replace(sc, cross_user_auth_rate=0))
    base, owner = sim.ivcl, sim.owner

    def stream():
        rng = np.random.default_rng(sc.seed)
        rng.integers(2**32, dtype=np.uint32)  # buffers the upper half of a 64-bit output
        return rng

    slack = -(2**40) if roomless else engine._GRANT_SLACK
    with mock.patch.object(engine, "_DRAW_BLOCK", block), \
            mock.patch.object(engine, "_GRANT_SLACK", slack):
        alone = stream()
        want = with_cross_user_grants(base, owner, rate, alone).row_keys()
        helper = _Helper()
        if joins in ("idle", "first"):
            helper.start.set()

        def before(k):
            if joins == "first" and k == 1 and helper.shared is not None:
                assert wait([helper.shared], 60).done
            elif k == joins:
                helper.start.set()

        rng = _PacedRng(stream(), before)
        try:
            got = with_cross_user_grants(base, owner, rate, rng, helper).row_keys()
        finally:
            helper.start.set()
            helper.shutdown()
    assert rng.bit_generator.state == alone.bit_generator.state
    assert rng.bit_generator.state["has_uint32"] == 1
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()
    assert got[0].tobytes() == want[0].tobytes() and got[2] == want[2]
    rows_a_block = max(1, block // sc.vms)
    if joins == "first" and sc.vms > rows_a_block:
        assert rng.calls == 1  # the helper drew every other block
    elif joins == "never":
        assert rng.calls == -(-sc.vms // rows_a_block)


def test_two_thread_draws_under_thread_stress_equal_the_one_thread_draw():
    """Four draws at once, each with a helper of its own (eight threads on
    the host's cores), in three-row blocks with the interpreter switching
    threads every microsecond: each log and stream is its one-thread draw."""
    owner = np.repeat(np.arange(1, 41), 5)  # 200 VMs of 40 users
    vms = range(1, 201)
    base = _log(vms, [(a, b) for a in vms for b in vms if a != b and owner[a - 1] == owner[b - 1]])
    base.csr()  # merged once here, then only read by the threads
    seeds = range(4)
    results = {}

    def draw(seed, helper):
        rng = np.random.default_rng(seed)
        results[seed, helper is None] = (
            with_cross_user_grants(base, owner, 0.5, rng, helper).row_keys()[1].tobytes(),
            rng.bit_generator.state,
        )

    def shared(seed):
        with ThreadPoolExecutor(1) as helper:
            draw(seed, helper)

    switch = sys.getswitchinterval()
    with mock.patch.object(engine, "_DRAW_BLOCK", 600):
        for seed in seeds:
            draw(seed, None)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=shared, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert results[seed, False] == results[seed, True]


def _assert_pairwise_log(sc, sim):
    """``sim``'s log and set-up stream are those of a pairwise draw for ``sc``."""
    ids = range(1, sc.vms + 1)
    if sc.fixed_users:
        owners = {vm: uid for uid, vms in sc.fixed_users.items() for vm in vms}
    else:
        chunks = np.array_split(np.arange(1, sc.vms + 1), sc.user_count())
        owners = {vm: uid for uid, chunk in enumerate(chunks, 1) for vm in chunk.tolist()}
    assert sim.owner.tolist() == [owners[vm] for vm in ids]
    rng = np.random.default_rng(np.random.SeedSequence(sc.seed).spawn(6)[0])
    want = {vm: set() for vm in ids}
    for a in ids:
        for b in ids:
            if a != b and owners[a] == owners[b]:
                want[a].add(b)
    if sc.cross_user_auth_rate > 0:
        for a in ids:
            for b in ids:
                if owners[a] != owners[b] and rng.random() < sc.cross_user_auth_rate:
                    want[a].add(b)
    rows = _rows(sim.ivcl)
    assert rows == {vm: sorted(dsts) for vm, dsts in want.items()}
    assert sim.ivcl.csr()[2].dtype == np.int32
    _assert_round_trips(sim.ivcl)
    assert sim.setup_rng.bit_generator.state == rng.bit_generator.state


def test_grant_after_query_merges_into_rows():
    ivcl = _log([5, 1], [(5, 1)])
    assert _rows(ivcl) == {1: [], 5: [1]}
    ivcl.grant(1, 9)
    ivcl.grant(5, 3)
    assert ivcl.is_authorized(5, 3) and ivcl.is_authorized(1, 9)
    assert _rows(ivcl) == {1: [9], 3: [], 5: [1, 3], 9: []}


class _Uniforms:
    """Stands in for a generator: ``random`` serves the given uniforms in
    order, so a test can place a drawn start where it wants it."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, shape):
        n = int(np.prod(shape))
        out, self.values = self.values[:n], self.values[n:]
        assert len(out) == n, "more uniforms drawn than given"
        return np.array(out).reshape(shape)


def _start_draw(start: int, size: int) -> float:
    """The uniform that draws position ``start`` of ``size``."""
    return (start + 0.5) / size


RING = 150  # past two 64-position passes of the fallback scan


@pytest.mark.parametrize("start", [0, 1, 64, 100, RING - 1])
@pytest.mark.parametrize("unusable", ["suspended", "unplaced"])
def test_benign_scan_wraps_to_the_destination_just_before_the_start(start, unusable):
    """VM 1's row holds VMs 2 to 151, and only the one just before the drawn
    start is usable, so the scan reads every other position of the row,
    wrapping around; with none usable, no link opens."""
    row = list(range(2, RING + 2))
    ivcl = _log(range(1, RING + 2), [(1, d) for d in row])
    target = row[start - 1]
    others = set(row) - {target}
    hosts = {vm: 1 for vm in range(1, RING + 2)}
    suspended = others if unusable == "suspended" else set()
    if unusable == "unplaced":
        hosts.update(dict.fromkeys(others))
    placement = _placement(hosts, 1)
    rows = {1: row}
    for usable, want in ((True, [(1, target)]), (False, [])):
        if not usable:
            suspended = suspended | {target}
        draws = [0.0, _start_draw(start, RING)]
        links = benign_links(placement, [1], suspended, ivcl, 1.0, _Uniforms(draws))
        assert _pairs(links) == want
        ref = reference_benign(placement, [1], suspended, rows, 1.0, _Uniforms(draws))
        assert ref == want


@pytest.mark.parametrize("start", [0, 1, 64, 100, RING - 1])
def test_remote_scan_wraps_and_skips_an_attacker_with_no_remote_victim(start):
    """Attacker 1 shares server 1 with every alive benign VM but the one just
    before its drawn start, which the scan reaches last, wrapping around.
    Once that one shares server 1 too, no remote link opens."""
    benign = list(range(2, RING + 2))
    target = benign[start - 1]
    for remote, want in ((True, [(1, target)]), (False, [])):
        hosts = {vm: 1 for vm in range(1, RING + 2)}
        hosts[target] = 2 if remote else 1
        placement = _placement(hosts, 2)
        # No co-located draw succeeds; the remote one always does.
        draws = [0.5, 0.5, 0.5, _start_draw(start, RING)]
        for form in ("lists", "arrays"):
            hostile, benign_ids = _as_passed(form, [1], benign)
            links = inject_malicious_behavior(
                placement, hostile, benign_ids, set(), 0.0, 1.0, _Uniforms(draws)
            )
            assert _pairs(links) == want
        ref = reference_inject(placement, [1], benign, set(), 0.0, 1.0, _Uniforms(draws))
        assert ref == want


@pytest.mark.parametrize("policy", ["wosc", "oscmc"])
def test_remote_victim_is_placed(policy):
    """Hostile VMs 1 and 2 sit on server 1, benign VMs 3 and 4 on server 2,
    and benign VMs 5 to 8 on no server.  Every remote probe lands on VM 3
    or 4: under ``wosc`` no live link ends at an unplaced VM, and under
    ``oscmc`` no link to one is reported as malicious."""
    sc = Scenario(
        servers=2, vms=8, intervals=3, fixed_placement={1: [1, 2], 2: [3, 4]},
        fixed_users={1: [1, 2], 2: [3, 4, 5, 6, 7, 8]}, fixed_malicious_users=[1],
        attack_remote_rate=1.0, seed=3, policy=policy,
    )
    sim = Simulation(sc)
    remote = set()
    for t in range(sc.intervals):
        sim.step(t)
        links = set(sim.live_links())
        if sim.log.reports:
            links |= sim.log.reports[-1].malicious_link_set
        assert {dst for _, dst in links} <= {1, 2, 3, 4}
        remote |= {(a, b) for a, b in links if a in (1, 2) and b in (3, 4)}
    assert remote, "no remote link was made"


# Ids past 46340 make (id + 1) ** 2 reach 2 ** 31, so the log keys become int64.
ids_ = st.integers(0, 40) | st.integers(46339, 46342) | st.integers(10**6, 10**6 + 3)


@st.composite
def logs(draw):
    """Registered ids (possibly none, possibly sparse), grants among them,
    grants to add after a first query, and links to check, some with an
    unregistered or negative end."""
    ids = sorted(draw(st.sets(ids_, max_size=10)))
    grants = []
    if len(ids) > 1:
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
            lambda p: p[0] != p[1]
        )
        grants = draw(st.lists(pairs, max_size=30))
    later = draw(st.lists(st.tuples(ids_, ids_).filter(lambda p: p[0] != p[1]), max_size=4))
    ends = st.sampled_from(ids) if ids else st.nothing()
    ends = ends | st.integers(-2, 45) if draw(st.booleans()) or not ids else ends
    links = draw(st.lists(st.tuples(ends, ends), max_size=12))
    return ids, grants, later, links


def _expected(registered, grants, links):
    """Whether each link is one of the ``grants``, or, when an end is not
    one of the ``registered`` ids, the first such end: of the sources, then
    of the destinations."""
    ends = [a for a, _ in links] + [b for _, b in links]
    unknown = [v for v in ends if v not in registered]
    if unknown:
        return "unregistered VM %d" % unknown[0]
    granted = set(grants)
    return [link in granted for link in links]


def _assert_check(want, run):
    """``run()`` gives a bool array of the values ``want`` lists, or raises
    the error ``want`` states."""
    if isinstance(want, str):
        with pytest.raises(UnregisteredVmError, match="^%s$" % want):
            run()
    else:
        got = np.asarray(run())
        assert got.dtype == bool and got.tolist() == want


def _assert_round_trips(ivcl):
    """``csr`` gives read-only ``(ids, indptr, int32 indices)``, each key is
    ``src * span + dst``, and a log built from the ids and the keys as
    ``row_keys`` gives them, or as a copy, keeps the keys without copying
    them and gives the same rows back."""
    ids, indptr, indices = ivcl.csr()
    assert (ids.dtype, indptr.dtype, indices.dtype) == (np.int64, np.int64, np.int32)
    assert not any(a.flags.writeable for a in (ids, indptr, indices))
    _indptr, keys, span = ivcl.row_keys()
    srcs = np.repeat(ids, np.diff(indptr))
    assert (keys == srcs * span + indices).all()
    for again in (Ivcl(ids, keys), ivcl.copy()):
        assert again.row_keys()[1] is keys
        got = again.csr()
        assert [a.tolist() for a in got] == [ids.tolist(), indptr.tolist(), indices.tolist()]


@settings(max_examples=300, deadline=None)
@given(logs())
def test_batch_check_equals_per_link_check(case):
    """``Ivcl.authorized`` of a batch, and ``is_authorized`` of each link,
    equal membership in the drawn grants, or raise naming the first end that
    is none of the drawn ids or grant ends; this holds after grants added
    once the log was queried.  ``csr`` gives the rows the grants state."""
    ids, grants, later, links = case
    ivcl = _log(ids, grants)
    for added in ([], later):
        for a, b in added:
            ivcl.grant(a, b)  # merged into the rows at the next query
        grants = grants + added
        drawn = set(ids).union(*added)
        src, dst = (np.array([link[i] for link in links], dtype=np.intp) for i in (0, 1))
        _assert_check(_expected(drawn, grants, links), lambda: ivcl.authorized(src, dst))
        for link in links:
            _assert_check(_expected(drawn, grants, [link]), lambda: [ivcl.is_authorized(*link)])
        registered = sorted(ivcl.registered)
        assert registered == sorted(drawn)
        rows = {vm: sorted({b for a, b in grants if a == vm}) for vm in registered}
        assert _rows(ivcl) == rows
        _assert_round_trips(ivcl)
        _indptr, keys, span = ivcl.row_keys()
        assert span == max(registered, default=0) + 1
        assert keys.dtype == (np.int32 if span**2 < 2**31 else np.int64)


def test_batch_check_over_empty_logs_and_rows():
    empty = Ivcl()
    assert empty.authorized(np.array([], np.intp), np.array([], np.intp)).tolist() == []
    for src, dst in ([0], [0]), ([-1], [-1]), ([1], [2]):
        with pytest.raises(UnregisteredVmError):
            empty.authorized(np.array(src), np.array(dst))
    assert Ivcl([1, 2]).authorized([1, 2], [2, 1]).tolist() == [False] * 2
    ivcl = _log([3, 7, 900], [])  # registered, every row empty
    assert ivcl.authorized(np.array([3, 7, 900]), np.array([7, 900, 3])).tolist() == [False] * 3
    for src, dst in ([3], [-1]), ([-1], [3]), ([3], [4]), ([901], [3]), ([3, 7], [7, 8]):
        with pytest.raises(UnregisteredVmError):
            ivcl.authorized(np.array(src), np.array(dst))
    # Sources and destinations of different lengths pair no link.
    ivcl = _log([1, 2, 3, 4], [(1, 3), (2, 3), (1, 4)])
    for src, dst in ([1, 2], [3]), ([1], [3, 4]):
        with pytest.raises(ValueError, match="link sources for"):
            ivcl.authorized(src, dst)
