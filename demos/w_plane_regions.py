"""Map the w-plane partition and sample its boundary curve to CSV.

The plane splits along |w e^(1-w)| = 1 into an outer region X, an inner
left region Y, and an inner right region Z, with the curve itself split
at w = 1 into a left arc and a right arc.  This demo classifies a coarse
grid, then samples the upper curve branch and writes szego_points.csv
next to this script.
"""

import csv
import os
from fractions import Fraction

from mpmath import mp

from ramasym import GaussianRational, classify, phi, szego_curve, to_mp


def main():
    print("coarse grid classification (x in [-2, 3], y in [0, 2])")
    print("------------------------------------------------------")
    counts = {}
    step = Fraction(1, 4)
    y = Fraction(2)
    while y >= 0:
        row = []
        x = Fraction(-2)
        while x <= 3:
            kind = classify(GaussianRational(x, y)).kind
            counts[kind] = counts.get(kind, 0) + 1
            row.append({"X": "x", "Y": "y", "Z": "z", "One": "1",
                        "Zero": "0", "ScurveBoundary": "s",
                        "TcurveBoundary": "t"}[kind])
            x += step
        print("  " + "".join(row))
        y -= step
    print("  legend: x/y/z regions, 1 and 0 special points, s/t boundary")
    print("  counts:", dict(sorted(counts.items())))

    print()
    print("boundary curve sample")
    print("---------------------")
    points = szego_curve(Fraction(-27, 100), Fraction(2), Fraction(1, 50),
                         digits=40)
    worst = max(p.residual for p in points)
    print(f"  {len(points)} points, worst modulus residual {mp.nstr(worst, 3)}")

    out_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "szego_points.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "re", "im", "residual"])
        for p in points:
            writer.writerow([mp.nstr(p.t, 20), mp.nstr(p.w.real, 20),
                             mp.nstr(p.w.imag, 20), mp.nstr(p.residual, 3)])
    print(f"  wrote {out_path}")

    print()
    print("phase along the curve: w e^(1-w) = e^(-i phi(w))")
    print("------------------------------------------------")
    for p in points[:: len(points) // 5]:
        # rationalize the sampled point so phi sees an exact input
        wre = Fraction(str(mp.nstr(p.w.real, 30)))
        wim = Fraction(str(mp.nstr(p.w.imag, 30)))
        w = GaussianRational(wre, wim)
        val = phi(w, tol=Fraction(1, 10 ** 25))
        with mp.workprec(200):
            resid = abs(to_mp(w) * mp.exp(1 - to_mp(w)) - mp.exp(-1j * val))
        print(f"  t={mp.nstr(p.t, 6):>10}  phi={mp.nstr(val, 10):>14}"
              f"  reconstruction residual {mp.nstr(resid, 3)}")


if __name__ == "__main__":
    main()
