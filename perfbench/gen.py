"""Write one benchmark input population as an event CSV.

The measured program only ever sees this CSV; the seed stays here.

    python3 perfbench/gen.py --population civ-10500 --seed 0 --out in.csv
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

from repro.cdr.datasets import synthesize
from repro.cdr.io import write_events_csv

#: name -> (preset, users before screening, recording days)
POPULATIONS = {
    "civ-500": ("synth-civ", 500, 2),
    "civ-10500": ("synth-civ", 10_500, 2),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--population", choices=sorted(POPULATIONS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    preset, n_users, days = POPULATIONS[args.population]
    dataset = synthesize(preset, n_users=n_users, days=days, seed=args.seed)
    tmp = args.out.with_name(args.out.name + f".{os.getpid()}.tmp")
    write_events_csv(dataset, tmp)
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
