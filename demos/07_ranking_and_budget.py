"""Leaderboard scoring protocol and the efficiency-budget gate.

Seven teams are ranked per metric, averaged into overall / fidelity /
perceptual category scores (lower is better), with equal scores resolved
by a pairwise majority vote.  The budget module checks parameter and MAC
counts against the 15M / 150G limits, including the Bayer group
convolution whose MACs equal a plain convolution's.
"""

from rawbench import LayerSpec, MetricRecord, build_report, check_constraints, final_table

ROWS = {
    "MR-CAS": (41.90, 0.9633, 0.2314, 0.4615, 0.2584),
    "IPIU-LAB": (41.59, 0.9621, 0.2426, 0.4698, 0.2619),
    "VMCL-ISP": (41.15, 0.9585, 0.2443, 0.4631, 0.2671),
    "HIT-IIL": (41.52, 0.9605, 0.2295, 0.4374, 0.2540),
    "DIPLab": (41.23, 0.9592, 0.2182, 0.4227, 0.2567),
    "MSA-Net": (41.13, 0.9596, 0.2523, 0.4680, 0.2576),
    "MS-Unet": (40.82, 0.9581, 0.2506, 0.4684, 0.2463),
}
records = [MetricRecord(team=t, psnr=v[0], ssim=v[1], lpips=v[2], arniqa=v[3], topiq=v[4])
           for t, v in ROWS.items()]
table = final_table(records)

print(f"{'team':10s} {'overall':>8s} {'fid pos':>8s} {'perc pos':>9s}")
for team in sorted(ROWS, key=lambda t: table.scores['overall'][t]):
    print(f"{team:10s} {table.scores['overall'][team]:8.2f} "
          f"{table.positions['fidelity'][team]:8d} {table.positions['perceptual'][team]:9d}")
print("note: the perceptual 5/6 placement comes from the majority vote over the\n"
      "tied average of HIT-IIL and MSA-Net.")

# Efficiency gate on a small CFA-aware model.
model = [
    LayerSpec("bgc", in_ch=4, out_ch=28, kernel=5),
    LayerSpec("conv2d", in_ch=28, out_ch=28, kernel=3),
    LayerSpec("elementwise"),
    LayerSpec("conv2d", in_ch=28, out_ch=4, kernel=3),
]
report = build_report(model)
result = check_constraints(report)
print(f"\nmodel: {report.total_params:,} params, {report.total_macs/1e9:.2f} GMacs "
      f"-> {'PASS' if result.passed else 'FAIL'}")

conv = LayerSpec("conv2d", in_ch=4, out_ch=32, kernel=3)
bgc = LayerSpec("bgc", in_ch=4, out_ch=32, kernel=3, period_n=2)
bgc_report, conv_report = build_report([bgc]), build_report([conv])
print("\nBGC vs conv2d at (1, 4, 512, 512):")
print(f"  MACs   {bgc_report.total_macs:,} vs {conv_report.total_macs:,} (equal)")
print(f"  params {bgc_report.total_params:,} vs {conv_report.total_params:,} (N^2 = 4x)")
