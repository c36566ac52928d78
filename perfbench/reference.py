"""Fixed reference task: a fresh interpreter doing a set amount of pure
Python work, of the kinds statusindex does (integer and bitset
arithmetic, dict and set traffic, sorting, big integers).

``run.py`` times it right before every measured command. The host's
speed drifts, and this task slows down with it, so each command's time
divided by the reference time just before it is steadier than either.
"""
acc = 0
for i in range(300_000):
    acc = (acc * 31 + i) & 0xFFFFFFFF
mask = 0
for i in range(0, 20_000, 3):
    mask |= 1 << i
bits = 0
while mask:
    low = mask & -mask
    mask ^= low
    bits += 1
counts: dict[int, int] = {}
for i in range(60_000):
    counts[i % 4099] = counts.get(i % 4099, 0) + i
pairs = {(i, (i * 7) % 1000) for i in range(30_000)}
ordered = sorted(pairs, key=lambda p: (p[1], -p[0]))
total = sum(i * i for i in range(100_000))
if bits != 6_667 or len(ordered) != 30_000 or total <= 0 or acc < 0:
    raise SystemExit("reference task computed a wrong result")
