"""A fixed task shaped like the program's work, timed beside it to track the host's speed.

It imports numpy, then formats, parses and reduces JSON lines of 19
probabilities, as a transcript reader and writer do. It does not import
regretaudit, so its time changes only with the machine.
"""

import json

import numpy as np

ROWS = 2000


def main() -> None:
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(19), size=ROWS)
    lines = [json.dumps({"t": t, "posted": int(t % 19), "probs": row.tolist()}) for t, row in enumerate(probs)]
    parsed = np.array([json.loads(line)["probs"] for line in lines])
    weights = parsed / parsed[np.arange(ROWS), np.arange(ROWS) % 19][:, None]
    m = parsed.T @ weights
    if not np.isfinite(m).all():
        raise SystemExit(1)


if __name__ == "__main__":
    main()
