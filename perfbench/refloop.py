"""Reference loop: a fixed amount of pure-Python work, run in its own child.

The host this benchmark was written on changes speed by up to 60% over
minutes (other tenants share its cores and caches), and a Python op slows
down with it.  The benchmark therefore times this loop just before and
just after every op and reports times scaled to a machine on which the loop
takes run.REF_SECONDS.  The loop does what heckekl's inner loops do: it
merges small dicts keyed by exponent into a dict keyed by tuples, and looks
up a table of about 80k small dicts at scattered keys, so that it slows
down under cache contention as a KL fill does.  It must not change, or
every scaled time changes with it.
"""

acc = {}
for i in range(90_000):
    key = (i % 720, i % 7)
    term = {i % 7: i, (i + 3) % 7: -i}
    old = acc.get(key)
    if old is None:
        acc[key] = term
    else:
        new = dict(old)
        for e, v in term.items():
            s = new.get(e, 0) + v
            if s:
                new[e] = s
            else:
                new.pop(e, None)
        acc[key] = new

table = {}
for i in range(80_000):
    table[(i % 1920, i // 1920)] = {i % 11: i, (i * 7) % 13: -i, 20: i}
total = 0
for i in range(180_000):
    d = table.get(((i * 7919) % 1920, (i * 104729) % 41))
    if d is not None:
        m = dict(d)
        m[i % 5] = m.get(i % 5, 0) + i
        total += len(m)
