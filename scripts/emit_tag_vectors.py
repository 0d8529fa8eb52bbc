"""Emit authentication test vectors as JSON lines.

Each line carries a balise id, key version, random user payload, the
derived 12-bit tag sb, and the 32-bit scrambling key S, so another
implementation can replay the KDF/tag/PRF chain bit for bit.

Usage, from a checkout (or drop PYTHONPATH=src with balisim installed):

    PYTHONPATH=src python3 scripts/emit_tag_vectors.py [--count N] [--seed N]
                                                       [--format long|short]
"""

import argparse
import json
import random

from balisim import auth, codec
from balisim.bits import bits_to_int


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=sorted(codec.FORMATS),
                        default="long")
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be a positive integer")
    if not 0 <= args.seed < 1 << 64:  # the keystore seed's range
        parser.error("--seed must be an integer in 0..2^64-1")

    fmt = codec.FORMATS[args.format]
    rng = random.Random(args.seed)
    keystore = auth.new_keystore(seed=args.seed)

    for _ in range(args.count):
        balise_id = rng.randrange(1 << auth.ID_BITS)
        user = bits_to_int([rng.randrange(2) for _ in range(fmt.user_bits)])
        keys = keystore.keys_for(balise_id)
        sb, s = auth.generate_tag(user, keys, fmt)
        print(json.dumps({
            "id": balise_id,
            "ver": keys.ver,
            "format": fmt.name,
            "mk_hex": keystore.mk.hex(),
            "user_bits": f"{user:0{fmt.user_bits}b}",
            "sb_hex": f"{sb:03x}",
            "S_hex": f"{s:08x}",
        }))


if __name__ == "__main__":
    main()
