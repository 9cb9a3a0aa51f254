"""SHA-256 digests that test_digests.py recomputes: the bytes the CLI writes
and the (F0, clamped) sequence of the solver's shooting trials.

np.sum's pairwise order belongs to the numpy build, and the ensemble's
float64 tan to the loop numpy dispatches for the CPU, so the digests hold
for the numpy version, platform and tan dispatch in HOST; elsewhere a
mismatch may be the build or the CPU, not the code. A change that moves
bytes on purpose updates the digest here and says why in CHANGES.md.

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
order and the artifact gained "stderr_exact", again when it lost
"seed_used", and again when its coherence factor came to be taken from the
half-angle tangent (every value moved at rounding level); and "solve W",
"sweep cache bytes" and "observables" when schema 4 dropped the tail and
residual fields that restated the grid, again, with the sweep CSVs,
when schema 5 dropped v13 and v15 and renamed v16 to pohozaev_residual, and
again when schema 6 dropped the grid, which the loader re-derives
(CHANGES.md). The trials and "chsh --optimize" hold the digests recorded
before the first of those changes.
"""

HOST = "numpy 2.4.6 on x86_64 Linux, float64 tan X86_V4"

DIGESTS = {
    "solve 0.1": "64102b671207b2ac9c9bda0595a72bbec7571d752588ee5de5be79f758308ea8",
    "trials 0.1": "918d3e324d94350597c5577c55cf5a0c9f7cae54f647b837b68220c2f8a45bbc",
    "solve 0.5": "99c68787b24556682b5607679102545f3d193a98133247b9e44dad3f482e7417",
    "trials 0.5": "c2db030c004a7f46090fcf6740821b0173e28f7bafe79f0f4f43a4b2d43d4ef8",
    "solve 0.97": "6109311aed7578eb9df5653e1d42de2dba015644320161868c8509bb647bfee0",
    "trials 0.97": "7a84f262dc21928595c506d53fa97f561c885774f9b4938ecbac63ae986ee17f",
    "sweep cold csv": "61652b924d555c8a7534804e50840d4b634613e184350130b44d1e0da5a855f7",
    "sweep warm csv": "61652b924d555c8a7534804e50840d4b634613e184350130b44d1e0da5a855f7",
    "sweep cache names": "f7c9b9e290354e168ee82b27b2cd3d0c792a7ea2afb514a73694f42c895c6b22",
    "sweep cache bytes": "c237f68982c6478a3ca27842a7c4257caa225f55657c11acf56cd1f2106f8510",
    "observables": "99c68787b24556682b5607679102545f3d193a98133247b9e44dad3f482e7417",
    "chsh --optimize": "59edeb1a4583743c4b9fa8f35a94d523e885db4f3e9961a590a870a316e42d3d",
    "ensemble": "154b839b4fea8cd5aa5ff708f2690fca67f7d51d64991164001c29fccea75d33",
}
