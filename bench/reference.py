"""A fixed amount of pure-Python work that imports nothing from slotchain.

    python3 bench/reference.py

bench/run.py times it from spawn to exit, once per round, to measure how
fast the machine runs Python while the round's steps run; the reported
times are scaled by it (see bench/README.md). It mixes what the steps
spend their time on: interpreter start-up, JSON encoding and decoding,
string building and dict updates. About 0.75 s on a 2.1 GHz Xeon.
"""

import json


def main() -> None:
    data = [{"id": f"d{i}",
             "turns": [{"u": " ".join(str(j) for j in range(12)), "s": {"a": str(i)}}
                       for _ in range(8)]}
            for i in range(3000)]
    for _ in range(4):
        data = json.loads(json.dumps(data))
    table: dict[str, int] = {}
    for i in range(300_000):
        key = f"k{i % 5000}"
        table[key] = table.get(key, 0) + i


if __name__ == "__main__":
    main()
