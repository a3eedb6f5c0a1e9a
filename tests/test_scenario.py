"""Scenario configuration and file-format tests."""

import dataclasses
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscmc.engine import Simulation
from oscmc.scenario import (
    PRESETS,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario_text,
    with_policy,
)


def test_presets_all_validate():
    for name, build in PRESETS.items():
        sc = build()
        sc.validate()
        assert sc.name == name


def test_xi_presets_scale_servers_at_45_percent():
    assert load_scenario("xi200").servers == 90
    assert load_scenario("xi500").servers == 225
    assert load_scenario("xi800").servers == 360
    assert load_scenario("xi1100").servers == 495


def test_illustration_preset_structure():
    sc = load_scenario("illustration")
    assert sc.servers == 5 and sc.vms == 15
    assert sc.fixed_malicious_users == [3]
    assert sorted(sc.fixed_users) == [1, 2, 3, 4]
    placed = sorted(vm for vms in sc.fixed_placement.values() for vm in vms)
    assert placed == list(range(1, 16))
    assert sc.pin_placement


def test_parse_basic_keys():
    sc = parse_scenario_text(
        """
        # trial fleet
        servers = 4
        vms = 9
        intervals = 12
        seed = 5
        policy = wosc
        malicious_user_pct = 10.5
        per_vm_models = true
        vm_flavors = 100:200:300, 400:500:600
        """
    )
    assert sc.servers == 4 and sc.vms == 9 and sc.intervals == 12
    assert sc.seed == 5 and sc.policy == "wosc"
    assert sc.malicious_user_pct == 10.5
    assert sc.per_vm_models is True
    assert sc.vm_flavors == [(100.0, 200.0, 300.0), (400.0, 500.0, 600.0)]


def test_parse_inline_comment_and_blank_lines():
    sc = parse_scenario_text("servers = 7  # trimmed fleet\n\nvms = 3\n")
    assert sc.servers == 7 and sc.vms == 3


def test_parse_unknown_key_reports_line():
    with pytest.raises(ScenarioError, match="line 2: unknown key 'frobnicate'"):
        parse_scenario_text("servers = 3\nfrobnicate = 9\n")


def test_parse_bad_value_reports_line_and_key():
    with pytest.raises(ScenarioError, match="line 1: bad value 'many' for servers"):
        parse_scenario_text("servers = many\n")
    with pytest.raises(ScenarioError, match="bad value"):
        parse_scenario_text("vm_flavors = 1:2\n")
    with pytest.raises(ScenarioError, match="bad value"):
        parse_scenario_text("per_vm_models = maybe\n")


# The knobs whose default is None: the value a file line sets, or None for a
# structure that no file line can state.
_UNSET_KNOBS = {
    "users": 4, "vuln_score_fixed": 5.5, "trace_path": "trace.csv", "fixed_placement": None,
    "fixed_users": None, "fixed_malicious_users": None, "scripted_links": None,
}


def test_every_scalar_knob_parses_and_structures_are_unknown_keys():
    """Each int, float, bool or str knob parses from a ``key = value`` line
    to a value of its type (numbers and flags other than the default); the
    dict and list knobs other than ``vm_flavors`` are unknown keys."""
    default = Scenario()
    for f in dataclasses.fields(Scenario):
        value = getattr(default, f.name)
        value = _UNSET_KNOBS[f.name] if value is None else value
        if f.name == "vm_flavors":
            continue
        if value is None:
            with pytest.raises(ScenarioError, match="line 1: unknown key '%s'" % f.name):
                parse_scenario_text("%s = 1\n" % f.name)
            continue
        if isinstance(value, bool):
            value = not value
        elif isinstance(value, (int, float)):
            value = value + 1 if isinstance(value, int) else value * 1.5
        sc = parse_scenario_text("%s = %s\n" % (f.name, value))
        got = getattr(sc, f.name)
        assert (type(got), got) == (type(value), value), f.name


def test_parse_missing_equals_reports_line():
    with pytest.raises(ScenarioError, match="line 1: expected key = value"):
        parse_scenario_text("servers 3\n")


def test_validate_rejects_bad_figures():
    with pytest.raises(ScenarioError):
        Scenario(servers=0).validate()
    with pytest.raises(ScenarioError):
        Scenario(policy="magic").validate()
    with pytest.raises(ScenarioError):
        Scenario(malicious_user_pct=120.0).validate()
    with pytest.raises(ScenarioError):
        Scenario(benign_link_rate=1.5).validate()
    with pytest.raises(ScenarioError):
        Scenario(attack_mode="surprise").validate()
    with pytest.raises(ScenarioError):
        Scenario(users=50, vms=10).validate()
    with pytest.raises(ScenarioError):
        Scenario(workers=0).validate()


def test_load_scenario_from_file(tmp_path):
    f = tmp_path / "mini.scn"
    f.write_text("servers = 3\nvms = 6\nintervals = 4\n")
    sc = load_scenario(str(f))
    assert sc.name == "mini"
    assert sc.servers == 3


def test_load_scenario_unknown_reference():
    with pytest.raises(ScenarioError, match="scenario not found"):
        load_scenario("does-not-exist")


def test_with_policy_replaces_only_policy():
    sc = load_scenario("xi200")
    other = with_policy(sc, "pssf")
    assert other.policy == "pssf"
    assert sc.policy == "oscmc"
    assert other.seed == sc.seed
    with pytest.raises(ScenarioError):
        with_policy(sc, "magic")


def test_user_count_default_is_third_of_vms():
    assert Scenario(vms=21).user_count() == 7
    assert Scenario(vms=2).user_count() == 1
    assert Scenario(vms=30, users=5).user_count() == 5


@pytest.mark.parametrize(
    "link", [(0, 2), (2, 11), (-1, 3), (1.5, 2), (float("nan"), 2), (2, float("inf"))]
)
def test_validate_rejects_scripted_links_outside_the_vms(link):
    """Live links are keyed by VM id, so a scripted link must join VMs 1 to
    ``vms``; a self-link is a link like any other."""
    with pytest.raises(ScenarioError, match="scripted_links"):
        Scenario(vms=10, scripted_links={0: [(1, 2), link]}).validate()
    Scenario(vms=10, scripted_links={0: [(1, 2), (10, 10)], 3: []}).validate()


@pytest.mark.parametrize(
    "knobs, named",
    [
        # One network's weights are in bounds, its training activations not.
        (dict(window=1, hidden=2**20), "train_sample * hidden"),
        (dict(vms=2**15, window=1, hidden=2**11, per_vm_models=True), "train_sample * hidden"),
        # Per-VM networks: few rows each, but 2**25 weights in all.
        (dict(vms=2**16, window=64, hidden=8, per_vm_models=True), "vms * window * hidden"),
    ],
)
def test_validate_bounds_the_training_arrays(knobs, named):
    """Validation alone: no network is built, so nothing large is allocated."""
    with pytest.raises(ScenarioError, match=re.escape(named)):
        Scenario(**knobs).validate()


@pytest.mark.parametrize(
    "knobs, named",
    [
        (dict(intervals=10**9), "intervals must be <= 2**18"),
        (dict(intervals=2**18 + 1, vms=1), "intervals must be <= 2**18"),
        (dict(intervals=2**13, vms=2**14 + 1), "intervals * vms"),
        (dict(intervals=1, vms=2**27 + 1), "intervals * vms"),
    ],
)
def test_validate_bounds_the_horizon_and_the_usage_array(knobs, named):
    """Validation alone: nothing sized by the horizon is allocated."""
    with pytest.raises(ScenarioError, match=re.escape(named)):
        Scenario(**knobs).validate()


def test_horizon_and_usage_array_at_the_ceiling_validate():
    Scenario(intervals=2**18, vms=2**9).validate()
    Scenario(intervals=2**13, vms=2**14).validate()
    assert 2**18 * 2**9 == 2**13 * 2**14 == 2**27


def test_training_arrays_at_the_ceiling_validate():
    Scenario(window=1, hidden=2**15).validate()  # 2 flavors * 256 rows * 2**15
    # At the default rate, 2**15 VMs expect more authorised links than validate allows.
    Scenario(vms=2**15, window=64, hidden=8, per_vm_models=True, cross_user_auth_rate=0).validate()
    assert 2 * 256 * 2**15 == 2**15 * 64 * 8 == 2**24


def test_validate_bounds_the_expected_log():
    """Validation alone: no log is drawn, so nothing large is allocated."""
    with pytest.raises(ScenarioError, match=re.escape("cross_user_auth_rate * vms**2")):
        Scenario(vms=2**13 + 1, intervals=1, cross_user_auth_rate=0.5).validate()
    with pytest.raises(ScenarioError, match=re.escape("cross_user_auth_rate * vms**2")):
        Scenario(vms=10**6, intervals=1).validate()
    Scenario(vms=2**13, intervals=1, cross_user_auth_rate=0.5).validate()  # 2**25 exactly
    Scenario(vms=10**6, intervals=1, cross_user_auth_rate=0).validate()
    for build in PRESETS.values():
        sc = build()
        assert 256 * sc.cross_user_auth_rate * sc.vms**2 <= 2**25  # far inside


def _validate_traced(sc: Scenario) -> int:
    """The traced peak of ``sc.validate()`` in bytes, whether or not it raises."""
    tracemalloc.start()
    try:
        sc.validate()
    except ScenarioError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_validate_bounds_the_same_owner_pairs():
    """Set-up grants each same-owner ordered pair with one call, so their
    count, n * (n - 1) summed over users, is bounded by 2**23: one user of
    2896 VMs validates and of 2897 does not, by the array_split sizes or by
    fixed users.  Validation alone: 10**6 users allocate nothing per user."""
    named = "same-owner VM pairs must be <= 2**23: raise users"
    assert 2896 * 2895 <= 2**23 < 2897 * 2896
    Scenario(vms=2896, users=1).validate()
    Scenario(vms=2897, fixed_users={7: list(range(1, 2897)), 8: [2897]}).validate()
    for sc in (
        Scenario(vms=2897, users=1),
        Scenario(vms=2897, fixed_users={7: list(range(1, 2898))}),
        Scenario(vms=10_000, servers=4500, users=1),
        Scenario(vms=10**6, users=2, intervals=1, cross_user_auth_rate=0),
    ):
        with pytest.raises(ScenarioError, match=re.escape(named)):
            sc.validate()
    # Sizes 9 and 8: 7,999,936 pairs, the million-VM memory test's users.
    sc = Scenario(vms=10**6, users=111_112, intervals=1, cross_user_auth_rate=0)
    sc.validate()
    assert _validate_traced(dataclasses.replace(sc, users=10**6)) < 2**16


def test_validate_bounds_the_server_count():
    """Set-up keeps about 730 B per server, so ``servers`` is bounded by 2**18:
    2**18 validates and 2**18 + 1 does not, nor does 10**9, which used to end
    in a MemoryError from the fleet's score draw.  Validation alone: nothing
    per server is allocated at or past the ceiling."""
    named = "servers must be <= 2**18"
    Scenario(servers=2**18).validate()
    assert _validate_traced(Scenario(servers=2**18)) < 2**16
    for servers in (2**18 + 1, 10**9):
        with pytest.raises(ScenarioError, match=re.escape(named)):
            Scenario(servers=servers).validate()
        assert _validate_traced(Scenario(servers=servers)) < 2**16


def test_validate_bounds_the_cross_user_draw():
    """With a positive rate set-up draws a uniform per cross-user pair, however
    few grants it expects, so those pairs are bounded by 2**30.  Validation
    alone: nothing is drawn or allocated."""
    named = "cross-user VM pairs must be <= 2**30 when cross_user_auth_rate > 0"
    sc = Scenario(vms=180_000, servers=81_000, cross_user_auth_rate=0.001)
    assert sc.cross_user_auth_rate * sc.vms**2 <= 2**25  # inside the expected-log bound
    with pytest.raises(ScenarioError, match=re.escape(named)):
        sc.validate()
    assert _validate_traced(sc) < 2**16
    dataclasses.replace(sc, cross_user_auth_rate=0).validate()  # nothing drawn
    # One VM per user: 2**15 VMs have 2**15 * (2**15 - 1) cross-user pairs.
    Scenario(vms=2**15, users=2**15, cross_user_auth_rate=0.001).validate()
    with pytest.raises(ScenarioError, match=re.escape(named)):
        Scenario(vms=2**15 + 1, users=2**15 + 1, cross_user_auth_rate=0.001).validate()
    Scenario(vms=25_000, servers=11_250).validate()  # the default rate's measured case
    Scenario(vms=30_000, servers=13_500, cross_user_auth_rate=0.001).validate()


# Each defect of a fixed structure, by the knob the error names.
_DEFECTS = {
    "user misses a VM": "fixed_users",
    "VM of two users": "fixed_users",
    "user VM outside": "fixed_users",
    "user id not whole": "fixed_users",
    "placed VM outside": "fixed_placement",
    "VM placed twice": "fixed_placement",
    "server outside": "fixed_placement",
    "hostile user unknown": "fixed_malicious_users",
}


@st.composite
def fixed_structures(draw):
    """A scenario with fixed users (or the default users), a partial fixed
    placement and fixed hostile users, and either no defect or one of
    ``_DEFECTS``, named."""
    vms, servers = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    vm_ids = list(range(1, vms + 1))
    users = None
    if draw(st.booleans()):
        uids = draw(st.lists(st.integers(1, 20), min_size=1, max_size=vms, unique=True))
        users = {uid: [] for uid in uids}
        for vm in draw(st.permutations(vm_ids)):
            users[draw(st.sampled_from(uids))].append(vm)
    user_ids = list(users) if users else list(range(1, max(1, vms // 3) + 1))
    placed = draw(st.lists(st.sampled_from(vm_ids), unique=True))
    placement = {}
    for vm in placed:
        placement.setdefault(draw(st.integers(1, servers)), []).append(vm)
    hostile = draw(st.lists(st.sampled_from(user_ids), unique=True))
    kinds = [d for d, knob in _DEFECTS.items() if users or knob != "fixed_users"]
    defect = draw(st.none() | st.sampled_from(kinds))
    some = draw(st.sampled_from(vm_ids))
    outside = draw(st.sampled_from([0, vms + 1, -1]))
    if defect == "user misses a VM":
        owner = next(uid for uid, vms_of in users.items() if some in vms_of)
        users[owner].remove(some)
    elif defect == "VM of two users":
        users[draw(st.sampled_from(user_ids))].append(some)
    elif defect == "user VM outside":
        users[draw(st.sampled_from(user_ids))].append(outside)
    elif defect == "user id not whole":
        users[draw(st.sampled_from([0.5, 2.5]))] = []
    elif defect == "placed VM outside":
        placement.setdefault(draw(st.integers(1, servers)), []).append(outside)
    elif defect == "VM placed twice":
        twice = draw(st.sampled_from(placed or [some]))
        placement.setdefault(draw(st.integers(1, servers)), []).extend([twice] * (2 - bool(placed)))
    elif defect == "server outside":
        placement[draw(st.sampled_from([0, servers + 1]))] = [some]
    elif defect == "hostile user unknown":
        hostile.append(draw(st.integers(-2, 25).filter(lambda u: u not in user_ids)))
    sc = Scenario(
        servers=servers, vms=vms, intervals=1, reserved_per=0, vuln_score_fixed=5.0,
        vm_flavors=[(10.0, 10.0, 10.0)], fixed_users=users,
        fixed_placement=placement or None, fixed_malicious_users=hostile,
    )
    return sc, defect


@settings(max_examples=200, deadline=None)
@given(fixed_structures())
def test_fixed_structures_validate_or_build(drawn):
    """Each drawn defect of the fixed users, placement or hostile users is a
    ``ScenarioError``; each valid structure builds a simulation that holds
    exactly it."""
    sc, defect = drawn
    if defect:
        with pytest.raises(ScenarioError, match=_DEFECTS[defect]):
            sc.validate()
        return
    sim = Simulation(sc)
    if sc.fixed_users:
        owner = {vm: uid for uid, vms in sc.fixed_users.items() for vm in vms}
        assert sim.owner.tolist() == [owner[vm] for vm in range(1, sc.vms + 1)]
    for sid, vms in (sc.fixed_placement or {}).items():
        assert all(sim.placement.server_of(vm) == sid for vm in vms)
    owners = enumerate(sim.owner.tolist(), 1)
    hostile = [vm for vm, uid in owners if uid in sc.fixed_malicious_users]
    assert sim.malicious_vm_ids.tolist() == hostile
    assert sim.log.malicious_users == len(sc.fixed_malicious_users)
