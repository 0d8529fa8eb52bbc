"""Tests for balise payloads, telegram programming, and attack semantics."""

import json
import os
import random

import pytest

from balisim import auth, codec
from balisim.bits import int_to_bits
from balisim.codec import LONG, SHORT
from balisim.sim import deployment, load_config
from balisim.sim.deployment import (
    AUTH_AUTHENTICATED,
    AUTH_LEGACY,
    KIND_CONTROLLED,
    KIND_FIXED,
    LEGACY_SB,
    BaliseSpec,
    Clone,
    Tamper,
    Unavailable,
    apply_attacks,
    build_deployment,
    load_telegram,
    pack_payload,
    parse_payload,
    program_telegram,
    save_telegram,
)
from balisim.sim.scenario import DEFAULT_BALISES, ScenarioConfig, \
    align_codeword, read_telegram, run_scenario

from attack_sweep import BUNDLED, SCENARIO_DIR
from test_readme import load_script


# ---------------------------------------------------------------------------
# Payload packing
# ---------------------------------------------------------------------------

def test_payload_round_trip():
    rng = random.Random(11)
    for fmt in (SHORT, LONG):
        for _ in range(50):
            bid = rng.randrange(1 << auth.ID_BITS)
            kind = rng.choice([KIND_FIXED, KIND_CONTROLLED])
            loc = rng.uniform(-5000.0, 5000.0)
            user = pack_payload(bid, kind, loc, fmt)
            assert type(user) is int and 0 <= user < 1 << fmt.user_bits
            got_id, got_kind, got_loc = parse_payload(user, fmt)
            assert got_id == bid
            assert got_kind == kind
            assert abs(got_loc - loc) <= 0.0005  # mm quantization


def test_payload_negative_location():
    user = pack_payload(7, KIND_FIXED, -100.0, SHORT)
    _, _, loc = parse_payload(user, SHORT)
    assert loc == -100.0


def test_payload_zero_padding():
    user = pack_payload(1, KIND_FIXED, 0.0, LONG)
    assert user & ((1 << (LONG.user_bits - (14 + 2 + 48))) - 1) == 0


@pytest.mark.parametrize("bid", [-1, 1 << auth.ID_BITS])
def test_payload_rejects_out_of_range_id(bid):
    with pytest.raises(ValueError):
        pack_payload(bid, KIND_FIXED, 0.0, SHORT)


def test_payload_rejects_out_of_range_location():
    too_far = float(1 << 47) / 1000.0  # one mm past the signed 48-bit range
    with pytest.raises(ValueError):
        pack_payload(1, KIND_FIXED, too_far, SHORT)
    pack_payload(1, KIND_FIXED, -too_far, SHORT)  # lower bound is inclusive
    # non-finite, and so large that loc * 1000 overflows to inf
    for loc in (float("inf"), float("-inf"), float("nan"), 1e306):
        with pytest.raises(ValueError):
            pack_payload(1, KIND_FIXED, loc, SHORT)


def test_parse_rejects_unknown_kind_code():
    user = pack_payload(1, KIND_FIXED, 0.0, SHORT)
    user |= 0b11 << (SHORT.user_bits - 16)  # kind code 3 is unassigned
    with pytest.raises(ValueError):
        parse_payload(user, SHORT)


EDGE_LOC = ((1 << 47) - 1) / 1000.0  # the largest location in signed 48-bit mm


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
@pytest.mark.parametrize("bid", [0, (1 << auth.ID_BITS) - 1])
@pytest.mark.parametrize("loc", [EDGE_LOC, -EDGE_LOC, -0.0])
def test_payload_round_trips_at_the_field_edges(fmt, bid, loc):
    for kind in (KIND_FIXED, KIND_CONTROLLED):
        user = pack_payload(bid, kind, loc, fmt)
        assert type(user) is int and 0 <= user < 1 << fmt.user_bits
        assert parse_payload(user, fmt) == (bid, kind, loc)


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
def test_parse_rejects_user_data_that_is_not_an_int_of_user_bits(fmt):
    user = pack_payload(1, KIND_FIXED, 0.0, fmt)
    for bad in (-1, 1 << fmt.user_bits, user | 1 << fmt.user_bits,
                int_to_bits(user, fmt.user_bits)):
        with pytest.raises(codec.FormatError):
            parse_payload(bad, fmt)
    # A long-format payload is one short-format payload too wide.
    if fmt is LONG:
        with pytest.raises(ValueError):
            parse_payload(user, SHORT)


def test_balise_spec_validation():
    BaliseSpec(id=0, loc=-1.0, kind=KIND_FIXED)
    with pytest.raises(ValueError):
        BaliseSpec(id=1 << auth.ID_BITS, loc=0.0, kind=KIND_FIXED)
    with pytest.raises(ValueError):
        BaliseSpec(id=-1, loc=0.0, kind=KIND_FIXED)
    with pytest.raises(ValueError):
        BaliseSpec(id=1, loc=0.0, kind="marker")


def test_balise_spec_is_immutable_and_checked_on_replace():
    spec = BaliseSpec(id=3, loc=-16.0, kind=KIND_FIXED)
    with pytest.raises(AttributeError):
        spec.loc = -4.0
    assert spec._replace(loc=-4.0) == BaliseSpec(3, -4.0, KIND_FIXED)
    with pytest.raises(ValueError):
        spec._replace(id=-1)
    with pytest.raises(TypeError, match=r"^BaliseSpec\."):
        BaliseSpec(id=3, loc=-16.0, kind=KIND_FIXED, telegram="b3.json")


# ---------------------------------------------------------------------------
# Programming
# ---------------------------------------------------------------------------

def test_program_legacy_round_trips():
    spec = BaliseSpec(id=42, loc=-64.0, kind=KIND_FIXED)
    telegram = program_telegram(spec, AUTH_LEGACY, None, SHORT)
    assert type(telegram) is int and 0 <= telegram < 1 << SHORT.n
    aligned = align_codeword(telegram, SHORT)
    assert aligned.sb == LEGACY_SB
    assert read_telegram(aligned, AUTH_LEGACY, None, [42], SHORT) == \
        (42, KIND_FIXED, -64.0)


def test_program_authenticated_round_trips():
    ks = auth.new_keystore(seed=5)
    spec = BaliseSpec(id=42, loc=0.0, kind=KIND_CONTROLLED)
    telegram = program_telegram(spec, AUTH_AUTHENTICATED, ks, LONG)
    assert type(telegram) is int and 0 <= telegram < 1 << LONG.n
    assert read_telegram(align_codeword(telegram, LONG), AUTH_AUTHENTICATED, ks,
                         [42], LONG) == (42, KIND_CONTROLLED, 0.0)


def test_program_authenticated_requires_keystore():
    spec = BaliseSpec(id=1, loc=0.0, kind=KIND_FIXED)
    with pytest.raises(ValueError):
        program_telegram(spec, AUTH_AUTHENTICATED, None, SHORT)


def test_program_reported_location_override():
    spec = BaliseSpec(id=9, loc=-36.0, kind=KIND_FIXED)
    telegram = program_telegram(spec._replace(loc=-1.0), AUTH_LEGACY, None, SHORT)
    assert read_telegram(align_codeword(telegram, SHORT), AUTH_LEGACY, None, [9],
                         SHORT) == (9, KIND_FIXED, -1.0)


def test_build_deployment():
    ks = auth.new_keystore(seed=6)
    specs = [
        BaliseSpec(id=1, loc=-100.0, kind=KIND_FIXED),
        BaliseSpec(id=2, loc=-64.0, kind=KIND_FIXED),
        BaliseSpec(id=3, loc=0.0, kind=KIND_CONTROLLED),
    ]
    telegrams = build_deployment(specs, AUTH_AUTHENTICATED, ks, SHORT)
    assert len(telegrams) == 3 and all(type(t) is int for t in telegrams)
    for spec, t in zip(specs, telegrams):
        fields = read_telegram(align_codeword(t, SHORT), AUTH_AUTHENTICATED, ks,
                               [spec.id], SHORT)
        assert fields[0] == spec.id


@pytest.mark.parametrize("fmt", [LONG, SHORT], ids=["long", "short"])
@pytest.mark.parametrize("mode", [AUTH_LEGACY, AUTH_AUTHENTICATED])
def test_every_default_track_codeword_aligns_to_itself_at_every_rotation(
        mode, fmt):
    # Three copies of each codeword, rotated by every k and read in both
    # polarities: codec.align finds the unrotated (data, sb) at shift
    # (n - k) % n.  scripts/check_rotations.py runs the same check over
    # the 50-balise authenticated track.
    keystore = auth.new_keystore(seed=1) if mode == AUTH_AUTHENTICATED else None
    codewords = build_deployment(DEFAULT_BALISES, mode, keystore, fmt)
    aligns, found = load_script("check_rotations").mismatches(codewords, fmt)
    assert aligns == len(DEFAULT_BALISES) * fmt.n * 2
    assert found == []


# ---------------------------------------------------------------------------
# Programming memo
# ---------------------------------------------------------------------------

@pytest.fixture
def codewords(monkeypatch, empty_memos):
    """The codec.codeword calls made from here on, with empty memos."""
    calls = []
    codeword = codec.codeword
    monkeypatch.setattr(codec, "codeword",
                        lambda *args: calls.append(args) or codeword(*args))
    return calls


def test_a_rerun_of_the_same_track_programs_nothing(codewords):
    cfg = ScenarioConfig(auth_mode=AUTH_AUTHENTICATED)
    cold = run_scenario(cfg)
    assert len(codewords) == len(cfg.balises)
    codewords.clear()
    assert run_scenario(cfg) == cold
    assert codewords == []


def _with_a_forged_telegram() -> ScenarioConfig:
    # Balise 1 carries a telegram the attacker programmed in legacy mode,
    # as a telegram file gives it.
    forged = program_telegram(BaliseSpec(1, -1.0, KIND_FIXED), AUTH_LEGACY,
                              None, LONG)
    return ScenarioConfig(auth_mode=AUTH_AUTHENTICATED, telegrams={1: forged})


@pytest.mark.parametrize("attack", [Tamper(balise=2, new_loc=-1.0),
                                    Clone(src=6, dst=3), Unavailable(balise=4),
                                    "telegram file"])
def test_an_attacked_run_leaves_the_next_run_of_its_track_cold(
        codewords, attack):
    if attack == "telegram file":
        attacked = _with_a_forged_telegram()
    else:
        attacked = ScenarioConfig(auth_mode=AUTH_AUTHENTICATED, attacks=[attack])
    plain = ScenarioConfig(auth_mode=AUTH_AUTHENTICATED)
    cold = run_scenario(plain)
    assert run_scenario(attacked) != cold
    codewords.clear()
    assert run_scenario(plain) == cold
    assert codewords == []


def _track(**change):
    """A three-balise track; change replaces fields of its balise 2."""
    return [BaliseSpec(1, -100.0, KIND_FIXED),
            BaliseSpec(2, -64.0, KIND_FIXED)._replace(**change),
            BaliseSpec(3, 0.0, KIND_CONTROLLED)]


@pytest.mark.parametrize("change", ["keystore seed", "auth mode", "format",
                                    "balise id", "balise loc", "balise kind"])
def test_any_change_to_the_track_programs_every_telegram_again(codewords, change):
    ks = auth.new_keystore(seed=1)
    base = (_track(), AUTH_AUTHENTICATED, ks, LONG)
    changed = {
        "keystore seed": (_track(), AUTH_AUTHENTICATED, auth.new_keystore(seed=2), LONG),
        "auth mode": (_track(), AUTH_LEGACY, ks, LONG),
        "format": (_track(), AUTH_AUTHENTICATED, ks, SHORT),
        "balise id": (_track(id=7), AUTH_AUTHENTICATED, ks, LONG),
        "balise loc": (_track(loc=-63.0), AUTH_AUTHENTICATED, ks, LONG),
        "balise kind": (_track(kind=KIND_CONTROLLED), AUTH_AUTHENTICATED, ks, LONG),
    }[change]
    m = len(_track())
    first = build_deployment(*base)
    assert build_deployment(*base) == first
    assert len(codewords) == m
    assert build_deployment(*changed) != first
    assert len(codewords) == 2 * m
    # Two slots: the first track is kept beside the changed one.
    assert build_deployment(*base) == first
    assert len(codewords) == 2 * m
    # A third track replaces the one used least recently, the changed one.
    build_deployment(_track(loc=-1.0), AUTH_LEGACY, None, SHORT)
    assert len(codewords) == 3 * m
    assert build_deployment(*base) == first
    assert len(codewords) == 3 * m
    assert build_deployment(*changed) != first
    assert len(codewords) == 4 * m


def test_a_second_pass_over_the_bundled_scenarios_programs_nothing(
        empty_memos):
    # The sorted batch alternates between the authenticated and the
    # legacy track, and the memo keeps both.
    configs = [load_config(os.path.join(SCENARIO_DIR, name + ".json"))
               for name in BUNDLED]
    for cfg in configs:
        run_scenario(cfg)
    assert deployment._track_codewords.cache_info().misses == 2
    for cfg in configs:
        run_scenario(cfg)
    assert deployment._track_codewords.cache_info().misses == 2


def test_value_equal_tracks_share_their_codewords(codewords, empty_memos):
    ks = auth.new_keystore(seed=3)
    as_float = [BaliseSpec(1, -100.0, KIND_FIXED), BaliseSpec(2, 0.0, KIND_CONTROLLED)]
    as_int = [BaliseSpec(1, -100, KIND_FIXED), BaliseSpec(2, 0, KIND_CONTROLLED)]
    from_float = build_deployment(as_float, AUTH_AUTHENTICATED, ks, LONG)
    from_int = build_deployment(as_int, AUTH_AUTHENTICATED, auth.Keystore(*ks), LONG)
    assert from_int == from_float
    assert len(codewords) == 2
    # Each run's list is its own: an attack on one leaves the other.
    assert from_int is not from_float
    from_int[0] = None
    assert from_float[0] is not None
    empty_memos()
    assert [program_telegram(s, AUTH_AUTHENTICATED, ks, LONG)
            for s in as_int] == from_float


# ---------------------------------------------------------------------------
# Attacks
# ---------------------------------------------------------------------------

B1 = BaliseSpec(id=1, loc=-100.0, kind=KIND_FIXED)
B2 = BaliseSpec(id=2, loc=-64.0, kind=KIND_FIXED)


def _single_deployment(auth_mode, keystore, fmt=SHORT):
    return [program_telegram(B1, auth_mode, keystore, fmt)]


def test_tamper_rewrites_location_and_reuses_sb():
    ks = auth.new_keystore(seed=7)
    telegrams = _single_deployment(AUTH_AUTHENTICATED, ks)
    original_sb = align_codeword(telegrams[0], SHORT).sb

    apply_attacks(telegrams, [B1], [Tamper(balise=1, new_loc=-1.0)], SHORT)

    aligned = align_codeword(telegrams[0], SHORT)
    assert aligned.sb == original_sb  # attacker replays the observed sb
    assert read_telegram(aligned, AUTH_LEGACY, None, [1], SHORT) == \
        (1, KIND_FIXED, -1.0)
    # ...but the forged content no longer verifies under the real keys.
    assert read_telegram(aligned, AUTH_AUTHENTICATED, ks, [1], SHORT) is None


def test_tamper_on_legacy_telegram_passes_legacy_decode():
    telegrams = _single_deployment(AUTH_LEGACY, None)
    apply_attacks(telegrams, [B1], [Tamper(balise=1, new_loc=-1.0)], SHORT)
    aligned = align_codeword(telegrams[0], SHORT)
    assert aligned.sb == LEGACY_SB
    assert read_telegram(aligned, AUTH_LEGACY, None, [1], SHORT) == \
        (1, KIND_FIXED, -1.0)


def test_tamper_on_suppressed_balise_uses_default_sb():
    telegrams = [None]
    apply_attacks(telegrams, [B1], [Tamper(balise=1, new_loc=-2.0)], SHORT)
    aligned = align_codeword(telegrams[0], SHORT)
    assert aligned.sb == LEGACY_SB
    assert read_telegram(aligned, AUTH_LEGACY, None, [1], SHORT)[2] == -2.0


def test_clone_copies_bits():
    ks = auth.new_keystore(seed=8)
    specs = [B1, B2]
    telegrams = build_deployment(specs, AUTH_AUTHENTICATED, ks, SHORT)
    src = telegrams[0]
    assert telegrams[1] != src
    apply_attacks(telegrams, specs, [Clone(src=1, dst=2)], SHORT)
    # An int cannot change in place, so the copy is independent.
    assert telegrams == [src, src]
    telegrams[0] ^= 1
    assert telegrams[1] == src


def test_clone_of_suppressed_source_suppresses_destination():
    telegrams = [None, program_telegram(B1, AUTH_LEGACY, None, SHORT)]
    apply_attacks(telegrams, [B1, B2], [Clone(src=1, dst=2)], SHORT)
    assert telegrams == [None, None]


def test_unavailable_suppresses_transmission():
    telegrams = _single_deployment(AUTH_LEGACY, None)
    apply_attacks(telegrams, [B1], [Unavailable(balise=1)], SHORT)
    assert telegrams == [None]


def test_apply_attacks_rejects_unknown_type():
    telegrams = _single_deployment(AUTH_LEGACY, None)
    with pytest.raises(TypeError):
        apply_attacks(telegrams, [B1], ["drop"], SHORT)


# ---------------------------------------------------------------------------
# Telegram files
# ---------------------------------------------------------------------------

def test_telegram_file_round_trip(tmp_path):
    spec = BaliseSpec(id=3, loc=-16.0, kind=KIND_FIXED)
    path = tmp_path / "b3.json"
    for fmt in (LONG, SHORT):
        for telegram in (program_telegram(spec, AUTH_LEGACY, None, fmt),
                         0, 1, (1 << fmt.n) - 1, 1 << (fmt.n - 1)):
            save_telegram(str(path), telegram, fmt)
            raw = json.loads(path.read_text())
            assert raw == {"format": fmt.name,
                           "bits": "".join(map(str, int_to_bits(telegram, fmt.n)))}
            assert load_telegram(str(path)) == (fmt, telegram)


def test_load_telegram_rejects_bad_files(tmp_path):
    text = "0" * (SHORT.n - 3)
    cases = {
        "fmt.json": ({"format": "medium", "bits": "0" * SHORT.n}, "malformed"),
        "chars.json": ({"format": "short", "bits": "01x" + text},
                       "invalid bit character 'x'"),
        "underscore.json": ({"format": "short", "bits": "01_" + text},
                            "invalid bit character '_'"),
        "space.json": ({"format": "short", "bits": "01 " + text},
                       "invalid bit character ' '"),
        "sign.json": ({"format": "short", "bits": "+01" + text},
                      "invalid bit character '\\+'"),
        "list.json": ({"format": "short", "bits": ["0"] * SHORT.n},
                      "bits must be a string"),
        "len.json": ({"format": "short", "bits": "0" * (SHORT.n - 1)},
                     f"{SHORT.n - 1} bits, short needs {SHORT.n}"),
        "keys.json": ({"bits": "0" * SHORT.n}, "malformed"),
    }
    for name, (payload, message) in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_telegram(str(path))


@pytest.mark.parametrize("telegram", [True, -1, 1 << LONG.n, 1.0, [0, 1]],
                         ids=["bool", "negative", "n_plus_1_bits", "float", "list"])
def test_save_telegram_rejects_what_is_not_an_n_bit_int(tmp_path, telegram):
    path = tmp_path / "t.json"
    with pytest.raises(ValueError, match="int of at most 1023 bits"):
        save_telegram(str(path), telegram, LONG)
    assert not path.exists()
