"""Ablation: the FibreSwitch fabric the paper's conclusions recommend.

"To scale to configurations larger than the ones examined in this paper,
we recommend a more aggressive interconnect (e.g., multiple Fibre
Channel loops connected by a FibreSwitch)." — Section 4.2 / 6.

This bench runs the interconnect-bound case (sort at 128 disks) on the
dual loop and on FibreSwitch fabrics of growing segment counts, showing
the recommendation pays off exactly where the dual loop saturates.
"""


def test_fibreswitch_scaling(artifact, committed):
    committed("ablation_fibreswitch")
    elapsed = artifact("ablation_fibreswitch")

    # At 128 disks (loop saturated) an 8-segment switch must win big;
    # at 64 disks (loop sufficient, per the paper) gains stay modest.
    assert elapsed[(128, 8)] < 0.8 * elapsed[(128, None)]
    gain_64 = elapsed[(64, None)] / elapsed[(64, 8)]
    gain_128 = elapsed[(128, None)] / elapsed[(128, 8)]
    assert gain_128 > gain_64
