"""YFilterSigma: a shared-prefix NFA for tree-pattern queries, run as a lazy DFA.

Path queries are compiled into a single non-deterministic automaton whose
states are shared between queries with common prefixes, as in YFilter [8].
Matching one document is a single traversal maintaining a set of active
states per element; the cost is largely independent of the number of
registered queries.

To keep the per-element cost near-constant the NFA is *determinised lazily*:
the set of NFA states active after reading a tag sequence is interned as a
DFA state, and the transition ``(DFA state, tag) -> DFA state`` is computed
at most once and then cached.  Documents with repeated shapes (the common
case for machine-generated alert streams) traverse the automaton through
plain dict lookups; the NFA subset construction runs only for tag sequences
never seen before.  Each DFA state carries the union of the accepting query
ids of its member NFA states, precomputed as a frozenset.

"Given a tree t, only certain subscriptions are active so the automaton is
virtually pruned to adapt to the specific filtering task for t": the
``active_queries`` argument of :meth:`YFilterSigma.match` restricts which
accepting states are reported and which queries get the (more expensive)
predicate verification.  Pruning only filters the reported ids, so all
callers share one DFA regardless of their active sets.
"""

from __future__ import annotations

from repro.xmlmodel.tree import Element
from repro.xmlmodel.xpath import Step, XPath

#: Interned DFA states are capped to keep adversarial tag vocabularies from
#: growing the subset-construction cache without bound; beyond the cap,
#: transitions are recomputed per element instead of cached.
MAX_DFA_STATES = 4096

#: Per-DFA-state transition-cache cap: even when the target state-set is
#: already interned, machine-generated unique tags must not grow a state's
#: transitions dict without bound.
MAX_TRANSITIONS_PER_STATE = 4096


class _State:
    """One NFA state: shared query-prefix node."""

    __slots__ = ("transitions", "descendant", "accepting")

    def __init__(self) -> None:
        self.transitions: dict[str, "_State"] = {}
        self.descendant: "_State | None" = None
        self.accepting: list[str] = []


def _close(out: set[_State], tag: str) -> None:
    """Descendant-or-self closure of a just-computed state set.

    The XPath dialect's ``//`` axis is descendant-*or-self*: in
    ``//Envelope//Header//Header`` a single ``Header`` element satisfies both
    trailing steps at once.  After reading an element with ``tag``, any state
    whose descendant sub-automaton can consume ``tag`` (or ``*``) is therefore
    also entered *at the same element*, transitively.  (The seed NFA missed
    this and under-matched queries like ``//a//a`` — caught by the
    differential tests against ``XPath.select``.)
    """
    work = list(out)
    while work:
        state = work.pop()
        descendant = state.descendant
        if descendant is None or descendant is state:
            # self-loop states' transitions were already followed by _follow
            continue
        target = descendant.transitions.get(tag)
        if target is not None and target not in out:
            out.add(target)
            work.append(target)
        target = descendant.transitions.get("*")
        if target is not None and target not in out:
            out.add(target)
            work.append(target)


def _follow(state: _State, tag: str, out: set[_State]) -> None:
    """Add to ``out`` every NFA state reachable from ``state`` on ``tag``."""
    target = state.transitions.get(tag)
    if target is not None:
        out.add(target)
    target = state.transitions.get("*")
    if target is not None:
        out.add(target)
    descendant = state.descendant
    if descendant is None:
        return
    if descendant is state:
        # a //-state stays active below itself; its name/'*' transitions
        # were already followed above
        out.add(state)
        return
    out.add(descendant)
    target = descendant.transitions.get(tag)
    if target is not None:
        out.add(target)
    target = descendant.transitions.get("*")
    if target is not None:
        out.add(target)


class _DFAState:
    """A materialised set of NFA states with its own transition cache."""

    __slots__ = ("nfa_states", "accepting", "transitions")

    def __init__(self, nfa_states: tuple[_State, ...], accepting: frozenset[str]) -> None:
        self.nfa_states = nfa_states
        self.accepting = accepting
        self.transitions: dict[str, "_DFAState"] = {}


class YFilterSigma:
    """Shared NFA over the structural part of registered path queries."""

    def __init__(self) -> None:
        self._initial = _State()
        self._queries: dict[str, XPath] = {}
        self._verify_queries: set[str] = set()
        self.states_created = 1
        self.elements_processed = 0
        # lazy-DFA machinery and its observability counters
        self._dfa_states: dict[frozenset[_State], _DFAState] = {}
        self._dfa_root: _DFAState | None = None
        self.dfa_cache_hits = 0
        self.dfa_cache_misses = 0

    # -- construction ------------------------------------------------------------

    def add_query(self, query_id: str, query: XPath | str) -> None:
        """Register a query under ``query_id`` (compiling it if given as text)."""
        if query_id in self._queries:
            raise ValueError(f"query id {query_id!r} already registered")
        path = XPath.compile(query) if isinstance(query, str) else query
        self._queries[query_id] = path

        # Structural steps are the leading element-name steps; attribute/text
        # steps and any predicate require verification of the full XPath once
        # the structural prefix has matched.
        structural: list = []
        needs_verification = False
        for step in path.steps:
            if step.is_attribute or step.is_text:
                needs_verification = True
                break
            structural.append(step)
            if step.predicates:
                needs_verification = True
        if needs_verification:
            self._verify_queries.add(query_id)

        # A relative path's first (child-axis) step starts at the *children*
        # of the context node, not the node itself — XPath.select evaluates
        # "b" over root.children.  Structurally that is "/*/b": prepend a
        # wildcard level so the NFA agrees with the oracle.  (Relative
        # descendant behaviour already coincides with the absolute case.)
        if structural and not path.absolute:
            structural.insert(0, Step("child", "*"))

        node = self._initial
        for step in structural:
            if step.axis == "descendant":
                if node.descendant is None:
                    node.descendant = _State()
                    node.descendant.descendant = node.descendant  # self-loop
                    self.states_created += 1
                node = node.descendant
            target = node.transitions.get(step.test)
            if target is None:
                target = _State()
                node.transitions[step.test] = target
                self.states_created += 1
            node = target
        node.accepting.append(query_id)

        # The NFA changed shape, so every materialised DFA state-set (and the
        # accepting unions baked into them) is stale: drop the whole DFA.
        self._dfa_states = {}
        self._dfa_root = None

    @property
    def query_count(self) -> int:
        return len(self._queries)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._queries

    def query(self, query_id: str) -> XPath:
        return self._queries[query_id]

    @property
    def dfa_state_count(self) -> int:
        """Number of NFA state-sets materialised as DFA states so far."""
        return len(self._dfa_states)

    # -- matching -------------------------------------------------------------------

    def match(
        self, item: Element, active_queries: set[str] | None = None
    ) -> set[str]:
        """Return the ids of queries matching ``item``.

        When ``active_queries`` is given, the automaton is virtually pruned:
        only those queries can be reported and only they pay for predicate
        verification.
        """
        root = self._dfa_root
        if root is None:
            root, _ = self._materialize(frozenset((self._initial,)))
            self._dfa_root = root
        # Distinct accepting frozensets reached, keyed by identity: repeated
        # document shapes hit the same few DFA states, so deferring the union
        # to the end turns per-element set work into one C-level union.
        accepting_sets: dict[int, frozenset[str]] = {}
        # Queries with an empty structural prefix (first step is an attribute
        # or text() test) accept at the initial state: every document matches
        # them structurally and verification decides.
        if root.accepting:
            accepting_sets[id(root.accepting)] = root.accepting
        processed = 0
        stack = [(item, root)]
        pop = stack.pop
        push = stack.append
        while stack:
            element, dfa = pop()
            processed += 1
            target = dfa.transitions.get(element.tag)
            if target is None:
                self.dfa_cache_misses += 1
                target = self._transition(dfa, element.tag)
            else:
                self.dfa_cache_hits += 1
            accepting = target.accepting
            if accepting:
                accepting_sets[id(accepting)] = accepting
            if target.nfa_states:
                for child in element.children:
                    push((child, target))
        self.elements_processed += processed

        if not accepting_sets:
            return set()
        structural: set[str] = set().union(*accepting_sets.values())
        if active_queries is not None:
            structural &= active_queries
        to_verify = structural & self._verify_queries
        if not to_verify:
            return structural
        matched = structural - to_verify
        queries = self._queries
        for query_id in to_verify:
            if queries[query_id].matches(item):
                matched.add(query_id)
        return matched

    # -- lazy subset construction ------------------------------------------------

    def _transition(self, dfa: _DFAState, tag: str) -> _DFAState:
        """Compute (and usually cache) the DFA transition ``dfa --tag-->``."""
        out: set[_State] = set()
        for state in dfa.nfa_states:
            _follow(state, tag, out)
        _close(out, tag)
        target, interned = self._materialize(frozenset(out))
        # Only link interned targets into the transition cache (a transient
        # state created past the cap must stay collectable), and stop caching
        # once this state has seen MAX_TRANSITIONS_PER_STATE distinct tags.
        if interned and len(dfa.transitions) < MAX_TRANSITIONS_PER_STATE:
            dfa.transitions[tag] = target
        return target

    def _materialize(self, key: frozenset[_State]) -> tuple[_DFAState, bool]:
        """Return the DFA state for ``key`` and whether it is interned."""
        existing = self._dfa_states.get(key)
        if existing is not None:
            return existing, True
        accepting: set[str] = set()
        for state in key:
            accepting.update(state.accepting)
        dfa = _DFAState(tuple(key), frozenset(accepting))
        if len(self._dfa_states) < MAX_DFA_STATES:
            self._dfa_states[key] = dfa
            return dfa, True
        return dfa, False

    def reset_counters(self) -> None:
        """Reset per-run counters (the materialised DFA itself is kept)."""
        self.elements_processed = 0
        self.dfa_cache_hits = 0
        self.dfa_cache_misses = 0

