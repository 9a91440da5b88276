"""Almost-perfect Kronecker spreading sequences, step by step.

Builds the length-16 quadriphase code, checks its perfect periodic
autocorrelation, synthesizes two users' basis waveforms over the standard
10 MHz mark (two unavailable bands), forms the length-1024 Kronecker
waveforms, and verifies the zero-correlation zone that makes windowed-shift
multiuser operation interference-free.

Run:  python3 demos/01_sequence_design.py [out_dir]
"""

import sys

import numpy as np

from tdcslab import (
    builtin_quadriphase16,
    build_user_fmw,
    export_complex_csv,
    gen_zadoff_chu,
    mark_from_bands,
    periodic_xcorr_fft,
    zero_zone_verify,
)

out_dir = sys.argv[1] if len(sys.argv) > 1 else None

# --- 1. perfect time-domain codes ----------------------------------------
code = builtin_quadriphase16()
acf = periodic_xcorr_fft(code, code)
print("quadriphase length-16 code:")
print("  ACF peak:", abs(acf[0]), " max off-peak:", np.max(np.abs(acf[1:])))

zc = gen_zadoff_chu(9, 2)
acf_zc = periodic_xcorr_fft(zc, zc)
print("Zadoff-Chu length-9 root-2 code:")
print("  ACF peak:", round(abs(acf_zc[0]), 9), " max off-peak:",
      f"{np.max(np.abs(acf_zc[1:])):.2e}")

# --- 2. basis waveforms over a sensed spectrum mark ----------------------
mark = mark_from_bands(10e6, [(2.5e6, 3.75e6), (6.25e6, 7.5e6)], 64)
print(f"\nspectrum mark: {mark.n_available}/{mark.n} bins available "
      f"(beta = {mark.beta:.2f})")

user1 = build_user_fmw(mark, code, user_seed=1)
user2 = build_user_fmw(mark, code, user_seed=2)
print(f"basis energy: {np.sum(np.abs(user1.basis.samples) ** 2):.9f}")
print(f"spreading waveform energy (= L): {user1.symbol_energy:.9f}")

# --- 3. the zero-correlation zone -----------------------------------------
report = zero_zone_verify(user1.c, user2.c, 64, 16)
print("\ncross-correlation of the two users' waveforms:")
print(f"  shifts with |phi| < tol: {report.zero_count} "
      f"(guaranteed: {report.required_count} of 1024)")
print(f"  largest magnitude inside the zone: {report.max_sidelobe_in_zone:.3e}")
print(f"  sidelobe identity residual (|tau| < N): {report.identity_residual:.3e}")
print(f"  verdict: {'almost perfect' if report.passed else 'BROKEN'}")

self_report = zero_zone_verify(user1.c, user1.c, 64, 16)
print("autocorrelation of user 1 (same zone, peak excluded):",
      self_report.zero_count, "zero shifts")

if out_dir:
    import os

    os.makedirs(out_dir, exist_ok=True)
    export_complex_csv(user1.c, os.path.join(out_dir, "user1_fmw.csv"))
    ccf = periodic_xcorr_fft(user2.c, user1.c)
    export_complex_csv(ccf, os.path.join(out_dir, "user1_user2_ccf.csv"))
    print(f"\nwrote waveform and CCF profiles to {out_dir}/")
