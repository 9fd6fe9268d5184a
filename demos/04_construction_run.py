"""A staged construction run and its structural checks.

The construction alternates freedom phases (many symbols may win, the
matrix grows in every direction) with restriction phases (a fixed symbol
pattern wins, steering all columns toward two competing towers).  Each
phase path is replayed against its phase's rule, each stage is checked
against per-stage norm conditions, and the stage checkpoints show column
directions converging to two distinct cluster vertices -- the geometric
signature of two independent invariant measures surviving in the limit.
"""
from ietkit.construction import (
    ExponentScale,
    check_condition_double_star,
    check_conditions_star,
    check_nue_angles,
    make_schedule,
    run_construction,
    validate_phase,
)


def main() -> None:
    schedule = make_schedule(1, ExponentScale.linear(), stages=3)
    run = run_construction(4, schedule, seed=11)

    print("per-stage statistics:")
    for st in run.stages:
        print(f"  stage {st.k}: norm {st.cumulative.norm}, "
              f"U={st.stats['U']}, u={st.stats['u']}, "
              f"V={st.stats['V']}, v={st.stats['v']}")

    print("\nphase paths replayed against their phase rules:")
    for st in run.stages:
        text = ", ".join(
            f"{name} {'; '.join(validate_phase(path)) or 'ok'}"
            for name, path in st.phases.items()
        )
        print(f"  stage {st.k}: {text}")

    print("\nstage norm conditions:")
    for rep in check_conditions_star(run):
        flags = {
            "(1)": rep.c1_pass, "(2)": rep.c2_pass,
            "(3)": rep.c3_pass, "(4)": rep.c4_pass,
        }
        text = " ".join(
            f"{k}={'-' if v is None else ('pass' if v else 'FAIL')}"
            for k, v in flags.items()
        )
        print(f"  stage {rep.stage}: {text}")
    for rep in check_condition_double_star(run):
        print(f"  stage {rep.stage}: angle conditions "
              f"lhs={'-' if rep.lhs_pass is None else rep.lhs_pass} "
              f"rhs={rep.rhs_pass}")

    print("\nwithin-stage angles to the two cluster spans "
          "(non-increasing at checkpoints):")
    for rep in check_nue_angles(run):
        lhs = ", ".join(f"{a:.4f}" for a in rep.lhs_angles)
        rhs = ", ".join(f"{a:.4f}" for a in rep.rhs_angles)
        print(f"  stage {rep.stage}: lhs [{lhs}]  rhs [{rhs}]")

    lim = run.limit
    print("\nlimit cluster geometry:")
    print(f"  intra-cluster spreads {lim.intra_lhs:.3g} / {lim.intra_rhs:.3g}")
    print(f"  inter-cluster distance {lim.inter:.3f}")
    print("  representative lengths:",
          [str(x) for x in lim.representative.lengths])


if __name__ == "__main__":
    main()
