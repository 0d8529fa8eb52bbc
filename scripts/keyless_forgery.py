"""Measure how often the multi-key reader accepts a keyless forgery.

A forger without keys writes a telegram with a random sb and a random
scrambling key S.  The authenticated reader (sim.scenario.read_telegram)
aligns it once and tries the key of every balise on the track map.  A
key passes the tag check when the 12-bit tag of the data it descrambles
equals sb, with probability 2**-12, so a forged crossing gets past the
tag check under some key with probability about m * 2**-12 on an
m-balise map.  The data a wrong key descrambles is random: parse_payload
rejects the half whose 2-bit kind code is not a valid kind, and the
reader rejects a payload whose 14-bit id is not the id of the key.  It
goes on to the next key after either, so about m * 2**-27 of the forged
crossings are accepted, 3.7e-7 at m = 50.

verify_and_decode reads the id off the scrambled data and the leading
bits of the key's scrambling key, and descrambles and computes the tag
only under the key whose id it names, so the reader's trials do not show
the tag passes.  They are counted beside it: under every track key the
aligned forged stream is descrambled with the keystream of the key's S
and the tag of the data compared with its sb.  Each forged codeword is
aligned once, by sim.scenario.align_codeword as a crossing aligns it,
and that alignment is both what the reader reads and what the tag
passes are counted on.

The map is 50 balises evenly spaced from -100 m to 0 m, as in the
auth_track_50 benchmark, with the scenario's default keystore (seed 1).

The random sb values of m track keys make m * 4,096 distinct S values,
more than auth.prf_s keeps (see the auth module notes), and the distinct
forged codewords fill the reader's memo of alignments to its bound of
1,024, so the report ends with how many of each are kept and the bound.

Usage, from a checkout (or drop PYTHONPATH=src with balisim installed):

    PYTHONPATH=src python3 scripts/keyless_forgery.py [--crossings N] [--seed N]
"""

import argparse
import random

from balisim import auth, codec
from balisim.sim import deployment, scenario

BALISES = 50


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--crossings", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.crossings < 1:
        parser.error("--crossings must be a positive integer")

    fmt = codec.LONG
    rng = random.Random(args.seed)
    keystore = auth.new_keystore(seed=1)
    track_ids = list(range(1, BALISES + 1))

    keys = [keystore.keys_for(balise_id) for balise_id in track_ids]
    tag_passes = accepted = 0
    for _ in range(args.crossings):
        user = deployment.pack_payload(rng.choice(track_ids),
                                       deployment.KIND_FIXED,
                                       rng.randrange(-100000, 0) / 1000.0, fmt)
        telegram = codec.codeword(user, rng.randrange(1 << codec.SB_WIDTH),
                                  rng.randrange(1 << 32), fmt)
        aligned = scenario.align_codeword(telegram, fmt)
        if scenario.read_telegram(aligned, deployment.AUTH_AUTHENTICATED,
                                  keystore, track_ids, fmt) is not None:
            accepted += 1
        for key in keys:
            user = aligned.data ^ codec.keystream(auth.prf_s(key.k1, aligned.sb),
                                                  fmt.user_bits)
            tag_passes += auth.tag_sb(key.k0, user, fmt) == aligned.sb

    n = args.crossings
    print(f"crossings N = {n}, keys per crossing m = {BALISES}")
    print(f"tag passes: {tag_passes} ({tag_passes / n:.4%} per crossing, "
          f"expected m * 2^-12 = {BALISES / 4096:.4%})")
    print(f"accepted:   {accepted} ({accepted / n:.4%} per crossing, "
          f"expected 1 - (1 - 2^-27)^m = {1 - (1 - 2 ** -27) ** BALISES:.6%})")
    kept = auth.prf_s.cache_info()
    print(f"S values kept: {kept.currsize} (at most {kept.maxsize:,})")
    print(f"alignments kept: {scenario.align_codeword.cache_info().currsize} "
          "(at most 1,024)")


if __name__ == "__main__":
    main()
