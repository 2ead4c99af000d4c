"""Corrupted advice tapes: every registered algorithm, fed a damaged copy of
its own oracle's tape, either plays a clean matching or stops with a typed
``NcmatchError``, never a bare Python exception."""
import dataclasses
import random
from collections import Counter

import pytest

from ncmatch import engine, generators
from ncmatch.codecs import AdviceTape, elias_delta_encode
from ncmatch.engine import (
    ALGORITHMS,
    asap_matching,
    bt_matching,
    greedy,
    simulate,
    sorted_matching,
)
from ncmatch.errors import IllegalMatch, NcmatchError, TapeExhausted
from ncmatch.geometry import BNM, MNM


def _flip(bits, rng):
    if not bits:
        return bits
    i = rng.randrange(len(bits))
    return bits[:i] + [1 - bits[i]] + bits[i + 1 :]


CORRUPTIONS = {
    "flip": _flip,
    "truncate": lambda bits, rng: bits[: rng.randrange(len(bits))] if bits else bits,
    "append": lambda bits, rng: bits + [rng.randrange(2) for _ in range(rng.randint(1, 8))],
    "random": lambda bits, rng: [rng.randrange(2) for _ in bits],
}


def _convex(kind):
    return lambda n, seed: generators.random_convex_instance(n, kind, seed)


# one case per registered algorithm and asap's two tape layouts
CASES = {
    "bt": (bt_matching, _convex(BNM)),
    "asap": (asap_matching, _convex(MNM)),
    "asap-unknown-n": (lambda: asap_matching(known_n=False), _convex(MNM)),
    "sorted": (sorted_matching, generators.random_general_instance),
    "greedy": (greedy, _convex(MNM)),
}

# the player guards a wrong tape must be able to reach
GUARDS = {
    "bt": ["arrives in an empty tree slot"],
    "asap": ["but nothing is available"],
    "asap-unknown-n": ["but nothing is available", "the advice word ends before arrival"],
    "sorted": [
        "advice points right of every unmatched x",
        "advice points left of every unmatched x",
    ],
}


def test_every_corrupted_tape_ends_in_a_clean_audit_or_a_typed_error():
    assert {make().name for make, _draw in CASES.values()} == set(ALGORITHMS)
    rng = random.Random(31)
    clean = Counter()
    fired = {name: Counter() for name in GUARDS}
    for name, (make, draw) in CASES.items():
        for corruption, corrupt in CORRUPTIONS.items():
            for _ in range(25):
                n, seed = rng.randint(1, 11), rng.randrange(10**6)
                inst = draw(n, seed)
                alg = make()
                oracle = alg.oracle
                damaged = dataclasses.replace(
                    alg,
                    oracle=lambda i, o=oracle: corrupt(list(o(i)) if o else [], rng),
                )
                try:
                    result = simulate(damaged, inst)
                except IllegalMatch as exc:
                    for guard in GUARDS.get(name, ()):
                        fired[name][guard] += guard in str(exc)
                except NcmatchError:
                    pass
                else:
                    # valid: non-crossing, and red-blue on BNM
                    assert result.violations.valid, (name, corruption, n, seed)
                    clean[name] += 1
    for name, guards in GUARDS.items():
        for guard in guards:
            assert fired[name][guard], (name, guard, fired[name])
    assert clean["greedy"] == 4 * 25  # greedy reads no advice


def test_a_corrupted_length_prefix_fails_before_catalan_is_called(monkeypatch):
    # an Elias delta prefix for n' = 2^40 followed by far fewer than n' - 1
    # bits; catalan(2^40) would grow the shared table past any memory, so a
    # stand-in records the call instead
    calls = []
    monkeypatch.setattr(engine, "catalan", calls.append)
    tape = AdviceTape(elias_delta_encode(1 << 40) + [0] * 64)
    player = asap_matching(known_n=False).make_player()
    with pytest.raises(TapeExhausted, match="needs at least 1099511627775 bits"):
        player.begin(None, tape)
    assert calls == []
