"""What a fresh interpreter pays before a search starts.

    PYTHONPATH=src python3 perfbench/setup_tables.py WORKLOAD SEED

Imports supchar, builds the workload's seeded tables and validates each one;
exits 1 if a table fails validate_table.  run.py times this process from
spawn to exit as setup_s.
"""

import sys

from supchar import validate_table

from workloads import generate, permute, specs_of


def main(workload: str, seed: int) -> int:
    for spec in specs_of(workload):
        violations = validate_table(permute(generate(spec), seed, spec).table)
        if violations:
            print(f"{spec}: {'; '.join(violations)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], int(sys.argv[2])))
