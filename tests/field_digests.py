"""sha256 of a field's construction: (modulus, g, exp, log, zech).

Shared by the tier-1 table test and the CI step that builds the largest
default-cap fields; pytest does not collect this module.  The expected
values were recorded from the trial-division modulus search and the
digit-convolution table builder that preceded the quotient-ring builder,
so a field that keeps its digest keeps every modulus, generator and table.

Run as a script to check the named fields and exit 1 on a mismatch:

    python tests/field_digests.py 2 20 3 12
"""

import hashlib
import sys

EXPECTED = {
    (2, 4): "0c1c413ebba2ccd0980c835be603f4600f315b4be2760fd71a3bc0ca23096f98",
    (3, 2): "d44dd486d28eba008773eb02ebcbde8ffabeb1ccc5498f3ceee196cd1c188df2",
    (2, 8): "e183455674a334c903f1e6590b76a6176a17638a2f2f1b5abd1b130eb823cc36",
    (3, 5): "6ac4eea3d78a7d61318de6e274a11deef45d30858c5cc8d721873e52dc1626ec",
    (17, 2): "89dad6a4b23d318dd75305a2087f55c1ad96972e01cd8fcec7aa93562d52e842",
    (2, 16): "e60434b8696fcb6f65d9eaa7f13cb6d1ea1f6010eb29b84508e6e4b04459ff36",
    (3, 7): "868b8ef47eacf3c116c725babce3b2840878a5161df60e22c7dca78c0f754fa5",
    (5, 8): "74fa03520b27c620959e0f3de299b817083023b95d00c4bd52bdb177d5d750b6",
    (2, 9): "fd7a53fdfcb26bb8d7d4a54741cef4effe6c5e32b55d748eb4461a981fcfbcba",
    (2, 10): "3c3d6d5e2e0057ed7bd8355b09a6c4fd2a293407cdf3f0482743b7208c2b9da8",
    (5, 3): "7edc508940e9ad2b84bb61413c4f0703e9c371482c73180b8d2504628c2f36cc",
    (2, 20): "d089204ca83805141ae0ccc6ba21adea9c9200aca86c46cd8e1189adaa2ad79a",
    (3, 12): "eb3962ac9edddc4fdf7e16564172989dcb0b9abb9d374c055632b5402cb24ce2",
    (1021, 2): "8206f5247e881c32c1171e414a9025cc1de87bd516812deaaf61235052ae62c6",
}

# Built by the CI step under a time limit; too slow for tier-1.
SLOW = ((5, 8), (2, 20), (3, 12), (1021, 2))


def digest(f) -> str:
    parts = (
        tuple(f.modulus),
        f.g,
        tuple(f.exp),
        tuple(f.log),
        None if f.zech is None else tuple(f.zech),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def main(argv) -> int:
    from residuemat import field_build

    args = [int(x) for x in argv]
    status = 0
    for p, m in zip(args[::2], args[1::2]):
        got = digest(field_build(p, m))
        ok = got == EXPECTED[(p, m)]
        print(f"GF({p}^{m}) {got} {'ok' if ok else 'MISMATCH'}")
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
