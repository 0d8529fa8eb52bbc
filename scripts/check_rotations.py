"""Check that every codeword of a track aligns to itself at every rotation.

A crossing receives three copies of a balise's codeword
(sim.scenario._received), and a reader may start recording at any bit
of it, in either polarity.  For each codeword t of the track and each
rotation k of it, both the stream of three copies of t rotated left by
k bits and its inversion are aligned with codec.align.  Each must
return the (data, sb) of the unrotated stream, at shift (n - k) % n,
with inverted set for the inverted stream and clear otherwise.  Any
other result, or an exception, is a mismatch.

The track is the 50-balise authenticated track of the auth_track_50
benchmark, long format, with the scenario's default keystore (seed 1):
102,300 aligns.  The script prints the number of aligns and of
mismatches, one line per mismatch, and exits 1 if there is any.

Usage, from a checkout (or drop PYTHONPATH=src with balisim installed):

    PYTHONPATH=src python3 scripts/check_rotations.py
"""

import sys

from balisim import auth, codec
from balisim.sim import deployment, scenario

BALISES = 50


def mismatches(codewords, fmt):
    """(aligns, [(index, k, inverted, result), ...]) over every rotation."""
    n = fmt.n
    mask = (1 << n) - 1
    ones = (1 << 3 * n) - 1   # inverts the three copies
    found = []
    aligns = 0
    for index, t in enumerate(codewords):
        want = codec.align(scenario._received(t, fmt), fmt)
        for k in range(n):
            rotated = scenario._received((t << k | t >> (n - k)) & mask, fmt)
            for inverted in (False, True):
                stream = (rotated._replace(value=rotated.value ^ ones)
                          if inverted else rotated)
                try:
                    got = codec.align(stream, fmt)
                except codec.CodecError as exc:
                    got = exc
                aligns += 1
                if got != (want.data, want.sb, (n - k) % n, inverted):
                    found.append((index, k, inverted, got))
    return aligns, found


def main():
    fmt = codec.LONG
    track = [
        deployment.BaliseSpec(
            id=i, loc=round(-100.0 * (BALISES - i) / (BALISES - 1), 3),
            kind=deployment.KIND_FIXED if i < BALISES
            else deployment.KIND_CONTROLLED)
        for i in range(1, BALISES + 1)
    ]
    codewords = deployment.build_deployment(
        track, deployment.AUTH_AUTHENTICATED, auth.new_keystore(seed=1), fmt)
    aligns, found = mismatches(codewords, fmt)
    print(f"aligns: {aligns}")
    print(f"mismatches: {len(found)}")
    for index, k, inverted, got in found:
        print(f"  balise {track[index].id}, k = {k}, inverted = {inverted}: {got!r}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
