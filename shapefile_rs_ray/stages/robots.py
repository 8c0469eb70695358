"""robots.txt crawl gate — RFC 9309 parsing + longest-match evaluation.

The crawl-policy stage of a web corpus pipeline: every fetched page must
be checked against its host's robots.txt before the text enters the
corpus (CC itself honors robots at crawl time; a re-curation pipeline
re-checks when policies tighten). Implements the public RFC 9309
semantics:

- group structure: consecutive ``User-agent:`` lines stack onto one
  group; the first rule line closes the agent set; ``#`` comments and
  unknown directives are ignored; keys are case-insensitive;
- group selection: the group whose agent token is the LONGEST
  case-insensitive substring of the crawler's product token wins;
  ``*`` is the fallback; if any specific group matches, ``*`` groups
  are ignored entirely;
- rule evaluation: longest-PATTERN match wins (octet length of the
  pattern), Allow wins ties, no match = allowed; patterns support the
  ``*`` wildcard and ``$`` end anchor.

Distribution shape: pages co-partition with the per-host robots table
by host hash (tag-union, coarse prime modulus — the repo's standard
zero-driver-state join); each partition parses a host's policy ONCE and
evaluates its pages VECTORIZED (numpy startswith per prefix rule;
wildcard rules fall back to a per-rule scalar matcher, rare in real
policies). At 10^8 hosts nothing is broadcast and no per-distinct-host
groupby exists.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .combine import by_partition


def parse_robots(text: str):
    """robots.txt -> list of groups: (agents, rules, crawl_delay) where
    rules are (is_allow, pattern) in file order."""
    groups: list = []
    agents: list[str] = []
    rules: list = []
    delay = None
    in_agents = False

    def close():
        nonlocal agents, rules, delay, in_agents
        if agents:
            groups.append((agents, rules, delay))
        agents, rules, delay = [], [], None
        in_agents = False

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            if not in_agents:
                close()
                in_agents = True
            agents.append(val.lower())
        elif key in ("allow", "disallow"):
            in_agents = False
            if val:
                rules.append((key == "allow", val))
            elif key == "disallow":
                pass                    # empty Disallow: allow-all no-op
        elif key == "crawl-delay":
            in_agents = False
            try:
                delay = int(val)
            except ValueError:
                pass
        else:
            in_agents = False           # unknown directive closes stacking
    close()
    return groups


def select_group(groups, agent: str):
    """RFC 9309 group selection for a product token: the longest
    matching specific agent token wins; '*' only when no specific
    token matches. Rules from ALL groups carrying the winning token
    are COMBINED in file order (RFC 9309 §2.2.1 — concatenated and
    generator-emitted policies routinely repeat a User-agent line);
    crawl-delay takes the first value any combined group declares."""
    agent = agent.lower()
    best_tok = None
    for agents, _rules, _delay in groups:
        for a in agents:
            if a != "*" and a in agent and (
                    best_tok is None or len(a) > len(best_tok)):
                best_tok = a
    want = best_tok if best_tok is not None else "*"
    rules: list = []
    delay = None
    found = False
    for agents, grules, gdelay in groups:
        if want in agents:
            found = True
            rules.extend(grules)
            if delay is None:
                delay = gdelay
    return (rules, delay) if found else ([], None)


def _match_scalar(pattern: str, path: str) -> bool:
    """Wildcard matcher: '*' spans any octets, trailing '$' anchors the
    end. Leftmost-greedy segment walk (optimal for the unanchored
    prefix semantics); with '$' the LAST segment is matched at the END
    of the path instead — leftmost matching of a final segment would
    wrongly reject e.g. 'a*b$' against 'aXbYb'. No regex."""
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    segs = pattern.split("*")
    first, rest = segs[0], segs[1:]
    if not path.startswith(first):
        return False
    pos = len(first)
    if not anchored:
        for seg in rest:
            j = path.find(seg, pos)
            if j < 0:
                return False
            pos = j + len(seg)
        return True
    if not rest:                        # no '*': exact whole-path match
        return pos == len(path)
    last = rest[-1]
    for seg in rest[:-1]:
        j = path.find(seg, pos)
        if j < 0:
            return False
        pos = j + len(seg)
    return path.endswith(last) and len(path) - len(last) >= pos


def decide_batch(rules, paths: np.ndarray) -> np.ndarray:
    """Vectorized longest-match-wins over one host's paths -> bool
    allowed[n]. Prefix rules evaluate as one numpy startswith each;
    wildcard/anchored rules use the scalar matcher."""
    n = len(paths)
    best_len = np.full(n, -1, np.int64)
    allowed = np.ones(n, bool)          # no match = allowed
    for is_allow, pattern in rules:
        plen = len(pattern)
        if "*" in pattern or pattern.endswith("$"):
            m = np.fromiter((_match_scalar(pattern, p) for p in paths),
                            bool, count=n)
        else:
            m = np.char.startswith(paths, pattern)
        # longer pattern wins; equal length: Allow wins
        upgrade = m & ((plen > best_len)
                       | ((plen == best_len) & is_allow))
        best_len[upgrade] = plen
        allowed[upgrade] = is_allow
    return allowed


def robots_gate(pages, robots, *, agent: str = "graftbot",
                host_col: str = "host", path_col: str = "path",
                id_col: str = "page_id"):
    """Dataset(host, n_allowed, n_blocked, sum_blocked): every page
    checked against its host's policy. `robots` is Dataset(host,
    robots_txt) — co-partitioned with pages by host hash, parsed once
    per host per partition."""
    def p_rows(batch: pa.Table) -> pa.Table:
        h = np.asarray(batch[host_col], np.int64)
        return pa.table({
            "host": pa.array(h, pa.int64()),
            "page_id": batch[id_col],
            "path": batch[path_col],
            "robots_txt": pa.nulls(len(h), pa.string()),
            "__kind": pa.array(np.ones(len(h), np.int64))})

    def r_rows(batch: pa.Table) -> pa.Table:
        h = np.asarray(batch[host_col], np.int64)
        return pa.table({
            "host": pa.array(h, pa.int64()),
            "page_id": pa.nulls(len(h), pa.int64()),
            "path": pa.nulls(len(h), pa.string()),
            "robots_txt": batch["robots_txt"],
            "__kind": pa.array(np.zeros(len(h), np.int64))})

    def gate(part: pa.Table) -> pa.Table:
        kind = np.asarray(part["__kind"], np.int64)
        host = np.asarray(part["host"], np.int64)
        rh = host[kind == 0]
        rtxt = part["robots_txt"].filter(pa.array(kind == 0)).to_pylist()
        policy = {int(h): select_group(parse_robots(t), agent)[0]
                  for h, t in zip(rh, rtxt)}
        pm = kind == 1
        ph = host[pm]
        pid = np.asarray(part["page_id"].filter(pa.array(pm)), np.int64)
        ppath = np.asarray(part["path"].filter(pa.array(pm)).to_pylist())
        out_h, out_a, out_b, out_s = [], [], [], []
        order = np.argsort(ph, kind="stable")
        ph, pid, ppath = ph[order], pid[order], ppath[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], ph[1:] != ph[:-1]))) if len(ph) else np.array([], int)
        bounds = np.append(starts, len(ph))
        for s, e in zip(bounds[:-1], bounds[1:]):
            h = int(ph[s])
            if h not in policy:
                raise ValueError(f"robots_gate: host {h} missing policy")
            ok = decide_batch(policy[h], ppath[s:e])
            out_h.append(h)
            out_a.append(int(ok.sum()))
            out_b.append(int((~ok).sum()))
            out_s.append(int(pid[s:e][~ok].sum()))
        return pa.table({
            "host": pa.array(out_h, pa.int64()),
            "n_allowed": pa.array(out_a, pa.int64()),
            "n_blocked": pa.array(out_b, pa.int64()),
            "sum_blocked": pa.array(out_s, pa.int64())})

    return by_partition([pages.map_batches(p_rows, batch_format="pyarrow"),
                         robots.map_batches(r_rows, batch_format="pyarrow")],
                        "host", gate, parts=61)


def synth_robots_txt(host: int) -> str:
    """Deterministic per-host policy exercising group selection (an
    ignored evilbot group, a graftbot-specific override on h%11==7),
    full blocks (h%5==0), digit-prefix Disallow with a longer two-digit
    Allow re-open, comments, stacked agents and Crawl-delay."""
    d = host % 10
    d2 = (host // 10) % 10
    lines = [f"# synthetic policy for h{host}.example",
             "User-agent: evilbot",
             "Disallow: /",
             ""]
    if host % 11 == 7:
        lines += ["User-agent: graftbot",
                  "User-agent: graftbot-image",   # stacked agent lines
                  "Allow: /",
                  ""]
    lines += ["User-agent: *"]
    if host % 5 == 0:
        lines += ["Disallow: /"]
    else:
        lines += [f"Disallow: /p/{d}",
                  f"Allow: /p/{d}{d2}",
                  f"Crawl-delay: {1 + host % 9}"]
    return "\n".join(lines) + "\n"
