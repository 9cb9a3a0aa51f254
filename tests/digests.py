"""SHA-256 digests that test_digests.py recomputes: the bytes the CLI writes
and the (F0, clamped) sequence of the solver's shooting trials.

np.sum's pairwise order belongs to the numpy build, so the digests hold for
the numpy version and platform in HOST; elsewhere a mismatch may be the
build, not the code. A change that moves bytes on purpose updates the digest
here and says why in CHANGES.md.

Keys:
- "solve W": `solve --omega W --no-cache --out`, W in {0.1, 0.5, 0.97};
- "trials W": that solve's coarse_scan + shoot calls of _Shooter.trial, as
  JSON [[repr(F0), clamped], ...];
- "sweep cold csv" / "sweep warm csv": `sweep --omega-min 0.2 --omega-max
  0.7 --steps 9` into an empty cache, then again on that cache;
- "sweep cache names": the cache's file names, sorted, one a line;
- "sweep cache bytes": the sorted digests of the cache files' bytes, one a
  line, so that it does not depend on their names;
- "observables", "chsh --optimize", "ensemble": each command's `--out` on
  the Omega = 0.5 archive (observables re-emits its input).

The cache-file names moved when hbar, c and ell0 left the cache key;
"ensemble" when each seed's realizations came to read one Philox stream in
order and the artifact gained "stderr_exact", and again when it lost
"seed_used"; and "solve W", "sweep cache bytes" and "observables" when
schema 4 dropped the tail and residual fields that restated the grid
(CHANGES.md). The trials, the sweep CSVs and "chsh --optimize" hold the
digests recorded before the first of those changes.
"""

HOST = "numpy 2.4.6 on x86_64 Linux"

DIGESTS = {
    "solve 0.1": "2bf3744147d887afd3ff68819bc93dd170dacaa966cda1631f7804aac337eef7",
    "trials 0.1": "918d3e324d94350597c5577c55cf5a0c9f7cae54f647b837b68220c2f8a45bbc",
    "solve 0.5": "19998c4f31689bf40229946a92a06ec94a59c26b4a92f7fbfc9f95c7c486029b",
    "trials 0.5": "c2db030c004a7f46090fcf6740821b0173e28f7bafe79f0f4f43a4b2d43d4ef8",
    "solve 0.97": "f48e87e9a983b155989cf042326b7f964e4dc95b40e77f4f83c8644d8cd93cfb",
    "trials 0.97": "7a84f262dc21928595c506d53fa97f561c885774f9b4938ecbac63ae986ee17f",
    "sweep cold csv": "56a33a78e87c6d2a01c0f7cf3e1a3fb1fe57b8957f8dbb078f0d4ad892f4f6b0",
    "sweep warm csv": "56a33a78e87c6d2a01c0f7cf3e1a3fb1fe57b8957f8dbb078f0d4ad892f4f6b0",
    "sweep cache names": "f7c9b9e290354e168ee82b27b2cd3d0c792a7ea2afb514a73694f42c895c6b22",
    "sweep cache bytes": "d7d3f173e778283c7c0fd09012f155e2f6607f88ce2cc3d2bdc1d47cab34449e",
    "observables": "19998c4f31689bf40229946a92a06ec94a59c26b4a92f7fbfc9f95c7c486029b",
    "chsh --optimize": "59edeb1a4583743c4b9fa8f35a94d523e885db4f3e9961a590a870a316e42d3d",
    "ensemble": "81a5e3528f47d5c5e594f5f34cc71f2f02a8dabbec7943abe6a6abc9d783e013",
}
