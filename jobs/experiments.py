"""Run every reproduction harness at full scale and print all tables —
the source of the measured numbers recorded in EXPERIMENTS.md.

    spark-submit jobs/experiments.py [--scale 1.0] [--seed 0]
"""
from __future__ import annotations

import sys
import time

sys.path.insert(0, "src")

from _common import base_parser, build_session  # noqa: E402

from repro.cluster.hac import ascii_dendrogram  # noqa: E402
from repro.core.authenticity import authenticity_clustering  # noqa: E402
from repro.core.elbow import elbow  # noqa: E402
from repro.core.fihc import fihc  # noqa: E402
from repro.core.table1 import table1  # noqa: E402
from repro.geo.regions import geo_tree  # noqa: E402
from repro.mining.spark_fpm import mine_all_regions  # noqa: E402
from repro.recipedb.generator import recipes  # noqa: E402
from repro.recipedb.stats import dataset_summary  # noqa: E402
from repro.recipedb.vocab import REGIONS  # noqa: E402


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = build_session("repro-experiments")
    t0 = time.time()
    df = recipes(spark, scale=args.scale, seed=args.seed).cache()
    n = df.count()
    print(f"[gen] {n} recipes in {time.time()-t0:.0f}s (scale={args.scale})")

    print("\n########## T5: dataset statistics (Section III) ##########")
    print(dataset_summary(df).to_string(index=False))

    t0 = time.time()
    mined = mine_all_regions(df, args.min_support).cache()
    print(f"\n[mine] {mined.count()} frequent patterns in {time.time()-t0:.0f}s")

    print("\n########## T1: Table I ##########")
    t1 = table1(df, mined=mined)
    print(t1.to_string(index=False))

    # fihc collects the mined result once; elbow reuses its feature matrix.
    fr = fihc(df, mined=mined)
    er = elbow(df, features=fr.features)

    print("\n########## T2: elbow / Fig 1 ##########")
    print(er.curve.to_string(index=False))
    print(
        f"knee_strength={er.knee_strength} at k={er.knee_k}; sharp elbow: "
        f"{er.has_sharp_elbow}"
    )

    print("\n########## T3: FIHC vs geography (Figs 2-4 vs 6) ##########")
    print(fr.geo_scores.to_string(index=False))
    for metric in fr.trees:
        print(f"probes[{metric}]: {fr.probes[metric]}")

    print("\n########## T4: authenticity vs geography (Fig 5 vs 6) ##########")
    ar = authenticity_clustering(df)
    print(ar.geo_scores.to_string(index=False))
    print("probes:", ar.probes)

    print("\n########## trees ##########")
    print("--- geographic reference (Fig 6) ---")
    print(ascii_dendrogram(geo_tree(REGIONS), REGIONS))
    print("--- FIHC euclidean (Fig 2) ---")
    print(ascii_dendrogram(fr.trees["euclidean"], REGIONS))
    print("--- authenticity (Fig 5) ---")
    print(ascii_dendrogram(ar.tree, REGIONS))
    spark.stop()


if __name__ == "__main__":
    main()
