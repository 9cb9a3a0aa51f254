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

The cache-file names moved when hbar, c and ell0 left the cache key, and
"ensemble" when each seed's realizations came to read one Philox stream in
order and the artifact gained "stderr_exact" (CHANGES.md); every other
digest is the one recorded before the first of those changes.
"""

HOST = "numpy 2.4.6 on x86_64 Linux"

DIGESTS = {
    "solve 0.1": "564e1d4158f3ee7d3125ccd93687dc690a3b81550cead466fbe4dca37159a39a",
    "trials 0.1": "918d3e324d94350597c5577c55cf5a0c9f7cae54f647b837b68220c2f8a45bbc",
    "solve 0.5": "b3102b86ca6b8306b8ce4535e61a8615f6355ba449e2d7abbdcfcec7f3323167",
    "trials 0.5": "c2db030c004a7f46090fcf6740821b0173e28f7bafe79f0f4f43a4b2d43d4ef8",
    "solve 0.97": "8cf082d0b733ea8528a065cd667e7268cb732b509af2e5c411cc44e6409a9d77",
    "trials 0.97": "7a84f262dc21928595c506d53fa97f561c885774f9b4938ecbac63ae986ee17f",
    "sweep cold csv": "56a33a78e87c6d2a01c0f7cf3e1a3fb1fe57b8957f8dbb078f0d4ad892f4f6b0",
    "sweep warm csv": "56a33a78e87c6d2a01c0f7cf3e1a3fb1fe57b8957f8dbb078f0d4ad892f4f6b0",
    "sweep cache names": "f7c9b9e290354e168ee82b27b2cd3d0c792a7ea2afb514a73694f42c895c6b22",
    "sweep cache bytes": "e8e7bc00569137778c1e8b3922dd8518585d5f1490240ebe419c2b0bba35e424",
    "observables": "b3102b86ca6b8306b8ce4535e61a8615f6355ba449e2d7abbdcfcec7f3323167",
    "chsh --optimize": "59edeb1a4583743c4b9fa8f35a94d523e885db4f3e9961a590a870a316e42d3d",
    "ensemble": "b263511afd3b7fc1dc143771548c78e27003bc97f89488c6b502f32c552bdf99",
}
