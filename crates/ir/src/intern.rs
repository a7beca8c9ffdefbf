//! Hash-consed terms, formulas, and id sequences.
//!
//! The solver substrate keys its caches by *what is being asked*: the
//! assumption stack, the query formula, the decided atoms of a partial cube.
//! Before this module those keys were pretty-printed renderings — building a
//! multi-kilobyte `String` per query and comparing keys in
//! `O(len · log n)`.  Hash consing replaces them with `Copy` 32-bit ids:
//! structurally equal values intern to the *same* id, so id equality is
//! structural equality and hashing an id is hashing a `u32`.
//!
//! Three id kinds cover every cache in the workspace:
//!
//! * [`TermId`] — a hash-consed [`Term`],
//! * [`FormulaId`] — a hash-consed [`Formula`],
//! * [`SeqId`] — a hash-consed sequence of raw ids (used for assumption
//!   stacks, decided-atom sets, and tracked-predicate lists).
//!
//! ## Sharding and the stability guarantees
//!
//! Ids must mean the same thing on every thread, so the tables are
//! process-global — but a single global mutex would serialize the racing
//! portfolio's lanes (DESIGN.md §12) and the service's workers on every
//! intern.
//! Each table is therefore split into `SHARD_COUNT` shards, each behind
//! its own `RwLock`.  The discipline:
//!
//! * **Keying.**  A node's shard is a pure function of the node's own hash
//!   (children already being ids, the hash is shallow and cheap), computed
//!   with a fixed-key hasher so it does not vary per thread or per table.
//!   Structurally equal nodes therefore always land in the same shard, and
//!   the uniqueness check only ever needs that one shard's lock.
//! * **Id encoding.**  An id packs the shard index into its low
//!   `SHARD_BITS` bits and the position within the shard above them.
//!   Decoding needs no map lookup, and ids allocated by different shards can
//!   never collide.
//! * **Lock scope.**  Children are interned *before* their parent node is
//!   built, so no lock is ever held across recursion and no intern ever
//!   takes two shard locks — lock ordering is trivial and deadlock-free.
//!   Lookups take the read lock; a miss upgrades by re-acquiring for write
//!   and re-checking (another thread may have interned the node in the
//!   window, and both racers then agree on the id the winner allocated).
//! * **Stability.**  Once returned, an id is *stable for the process
//!   lifetime*: shards are append-only and never freed, so `to_term`/
//!   `to_formula` on a stored id always succeeds, and id equality remains
//!   structural equality forever.  The *numeric values* of ids depend on
//!   interning order (and thus on thread interleaving); only id equality is
//!   meaningful, and ids must never be persisted or compared across
//!   processes.
//!
//! The set of distinct terms a verification run builds is bounded by the
//! program text plus the predicates discovered by refinement, which stays
//! tiny — so append-only tables do not grow without bound.
//!
//! The key soundness property (exercised by the workspace property tests):
//! for all formulas `f`, `g`,
//! `FormulaId::intern(f) == FormulaId::intern(g)`
//! ⇔ `f == g` ⇔ `f.to_string() == g.to_string()` — interned equality,
//! structural equality, and rendering equality coincide, so swapping a
//! rendered cache key for an id never changes which queries share an entry.

use crate::formula::{Atom, Formula, RelOp};
use crate::symbol::Symbol;
use crate::term::Term;
use crate::var::VarRef;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// Number of lock shards per table.  A small power of two: enough to make
/// contention negligible at the worker counts the harness uses (≤ 16
/// threads), cheap enough that the per-shard `HashMap`s stay warm.
const SHARD_COUNT: usize = 16;
/// Bits of an id reserved for the shard index (`2^SHARD_BITS ==
/// SHARD_COUNT`).
const SHARD_BITS: u32 = 4;

/// A hash-consed [`Term`]: a 4-byte id with `O(1)` equality and hashing.
/// Two terms intern to the same id if and only if they are structurally
/// equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(u32);

/// A hash-consed [`Formula`]; see [`TermId`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FormulaId(u32);

/// A hash-consed sequence of raw 32-bit ids.  Callers use it to give a
/// whole *collection* (an assumption stack, a sorted atom set, a predicate
/// list) a single `Copy` identity: two sequences intern to the same id if
/// and only if they are element-wise equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SeqId(u32);

/// Interned spine of a [`Term`]: children are ids, so node equality is
/// shallow.
#[derive(Clone, PartialEq, Eq, Hash)]
enum TermNode {
    Const(i128),
    Var(VarRef),
    Bound(Symbol),
    Add(TermId, TermId),
    Sub(TermId, TermId),
    Neg(TermId),
    Mul(TermId, TermId),
    Select(TermId, TermId),
    Store(TermId, TermId, TermId),
    App(Symbol, Box<[TermId]>),
}

/// Interned spine of a [`Formula`].
#[derive(Clone, PartialEq, Eq, Hash)]
enum FormulaNode {
    True,
    False,
    Atom(TermId, RelOp, TermId),
    Not(FormulaId),
    And(Box<[FormulaId]>),
    Or(Box<[FormulaId]>),
    Implies(FormulaId, FormulaId),
    Forall(Box<[Symbol]>, FormulaId),
}

/// One append-only hash-consing shard.  `map` holds the *inner* (per-shard)
/// index; the encoded id is produced by [`Sharded::intern`].
struct Shard<N> {
    map: HashMap<N, u32>,
    nodes: Vec<N>,
}

impl<N> Shard<N> {
    fn new() -> Shard<N> {
        Shard { map: HashMap::new(), nodes: Vec::new() }
    }
}

/// A hash-consing table split into [`SHARD_COUNT`] independently locked
/// shards.  See the module docs for the keying and id-encoding discipline.
struct Sharded<N> {
    shards: [RwLock<Shard<N>>; SHARD_COUNT],
}

impl<N: Clone + Eq + Hash> Sharded<N> {
    fn new() -> Sharded<N> {
        Sharded { shards: std::array::from_fn(|_| RwLock::new(Shard::new())) }
    }

    /// The shard a node belongs to: a fixed-key hash of the node itself, so
    /// the mapping is identical on every thread of the process.
    fn shard_of(node: &N) -> usize {
        let mut h = DefaultHasher::new();
        node.hash(&mut h);
        (h.finish() as usize) % SHARD_COUNT
    }

    fn encode(inner: u32, shard: usize) -> u32 {
        (inner << SHARD_BITS) | shard as u32
    }

    fn intern(&self, node: N) -> u32 {
        let shard_idx = Self::shard_of(&node);
        {
            let shard = self.shards[shard_idx].read().expect("intern shard poisoned");
            if let Some(&inner) = shard.map.get(&node) {
                return Self::encode(inner, shard_idx);
            }
        }
        let mut shard = self.shards[shard_idx].write().expect("intern shard poisoned");
        // Re-check under the write lock: another thread may have interned
        // the node between our read unlock and write lock.
        if let Some(&inner) = shard.map.get(&node) {
            return Self::encode(inner, shard_idx);
        }
        let inner = u32::try_from(shard.nodes.len()).expect("intern shard overflow");
        assert!(inner <= u32::MAX >> SHARD_BITS, "intern shard overflow");
        shard.nodes.push(node.clone());
        shard.map.insert(node, inner);
        Self::encode(inner, shard_idx)
    }

    fn get(&self, id: u32) -> N {
        let shard_idx = (id as usize) % SHARD_COUNT;
        let inner = (id >> SHARD_BITS) as usize;
        self.shards[shard_idx].read().expect("intern shard poisoned").nodes[inner].clone()
    }
}

struct Interner {
    terms: Sharded<TermNode>,
    formulas: Sharded<FormulaNode>,
    seqs: Sharded<Box<[u32]>>,
}

impl Interner {
    fn new() -> Interner {
        Interner { terms: Sharded::new(), formulas: Sharded::new(), seqs: Sharded::new() }
    }

    // Children are interned before the parent node is assembled, so each
    // `Sharded::intern` call below runs with no other shard lock held.
    fn intern_term(&self, t: &Term) -> TermId {
        let node = match t {
            Term::Const(c) => TermNode::Const(*c),
            Term::Var(v) => TermNode::Var(*v),
            Term::Bound(b) => TermNode::Bound(*b),
            Term::Add(a, b) => TermNode::Add(self.intern_term(a), self.intern_term(b)),
            Term::Sub(a, b) => TermNode::Sub(self.intern_term(a), self.intern_term(b)),
            Term::Neg(a) => TermNode::Neg(self.intern_term(a)),
            Term::Mul(a, b) => TermNode::Mul(self.intern_term(a), self.intern_term(b)),
            Term::Select(a, b) => TermNode::Select(self.intern_term(a), self.intern_term(b)),
            Term::Store(a, b, c) => {
                TermNode::Store(self.intern_term(a), self.intern_term(b), self.intern_term(c))
            }
            Term::App(f, args) => {
                TermNode::App(*f, args.iter().map(|a| self.intern_term(a)).collect())
            }
        };
        TermId(self.terms.intern(node))
    }

    fn intern_formula(&self, f: &Formula) -> FormulaId {
        let node = match f {
            Formula::True => FormulaNode::True,
            Formula::False => FormulaNode::False,
            Formula::Atom(a) => {
                FormulaNode::Atom(self.intern_term(&a.lhs), a.op, self.intern_term(&a.rhs))
            }
            Formula::Not(inner) => FormulaNode::Not(self.intern_formula(inner)),
            Formula::And(parts) => {
                FormulaNode::And(parts.iter().map(|p| self.intern_formula(p)).collect())
            }
            Formula::Or(parts) => {
                FormulaNode::Or(parts.iter().map(|p| self.intern_formula(p)).collect())
            }
            Formula::Implies(a, b) => {
                FormulaNode::Implies(self.intern_formula(a), self.intern_formula(b))
            }
            Formula::Forall(vars, body) => {
                FormulaNode::Forall(vars.iter().copied().collect(), self.intern_formula(body))
            }
        };
        FormulaId(self.formulas.intern(node))
    }

    fn term(&self, id: TermId) -> Term {
        match self.terms.get(id.0) {
            TermNode::Const(c) => Term::Const(c),
            TermNode::Var(v) => Term::Var(v),
            TermNode::Bound(b) => Term::Bound(b),
            TermNode::Add(a, b) => Term::Add(Box::new(self.term(a)), Box::new(self.term(b))),
            TermNode::Sub(a, b) => Term::Sub(Box::new(self.term(a)), Box::new(self.term(b))),
            TermNode::Neg(a) => Term::Neg(Box::new(self.term(a))),
            TermNode::Mul(a, b) => Term::Mul(Box::new(self.term(a)), Box::new(self.term(b))),
            TermNode::Select(a, b) => Term::Select(Box::new(self.term(a)), Box::new(self.term(b))),
            TermNode::Store(a, b, c) => {
                Term::Store(Box::new(self.term(a)), Box::new(self.term(b)), Box::new(self.term(c)))
            }
            TermNode::App(f, args) => Term::App(f, args.iter().map(|a| self.term(*a)).collect()),
        }
    }

    fn formula(&self, id: FormulaId) -> Formula {
        match self.formulas.get(id.0) {
            FormulaNode::True => Formula::True,
            FormulaNode::False => Formula::False,
            FormulaNode::Atom(l, op, r) => Formula::Atom(Atom::new(self.term(l), op, self.term(r))),
            FormulaNode::Not(inner) => Formula::Not(Box::new(self.formula(inner))),
            FormulaNode::And(parts) => {
                Formula::And(parts.iter().map(|p| self.formula(*p)).collect())
            }
            FormulaNode::Or(parts) => Formula::Or(parts.iter().map(|p| self.formula(*p)).collect()),
            FormulaNode::Implies(a, b) => {
                Formula::Implies(Box::new(self.formula(a)), Box::new(self.formula(b)))
            }
            FormulaNode::Forall(vars, body) => {
                Formula::Forall(vars.to_vec(), Box::new(self.formula(body)))
            }
        }
    }
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(Interner::new)
}

impl TermId {
    /// Interns `t`, returning its hash-consed id.
    pub fn intern(t: &Term) -> TermId {
        interner().intern_term(t)
    }

    /// Reconstructs the term this id stands for.
    pub fn to_term(self) -> Term {
        interner().term(self)
    }

    /// The raw id, for embedding in a [`SeqId`] sequence.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl FormulaId {
    /// Interns `f`, returning its hash-consed id.
    pub fn intern(f: &Formula) -> FormulaId {
        interner().intern_formula(f)
    }

    /// Reconstructs the formula this id stands for.
    pub fn to_formula(self) -> Formula {
        interner().formula(self)
    }

    /// The raw id, for embedding in a [`SeqId`] sequence.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl SeqId {
    /// Interns a sequence of raw ids.  Element order is significant: two
    /// sequences share an id exactly when they are element-wise equal.
    pub fn intern(ids: &[u32]) -> SeqId {
        SeqId(interner().seqs.intern(ids.into()))
    }

    /// The empty sequence.
    pub fn empty() -> SeqId {
        SeqId::intern(&[])
    }

    /// Interns the two-element sequence `(head, tail)` — the cons cell used
    /// to give an assumption *stack* an `O(1)`-updatable identity: each
    /// pushed assumption interns `(previous stack id, formula id)`.
    pub fn cons(head: SeqId, tail: u32) -> SeqId {
        SeqId::intern(&[head.0, tail])
    }

    /// The raw id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<&Term> for TermId {
    fn from(t: &Term) -> TermId {
        TermId::intern(t)
    }
}

impl From<&Formula> for FormulaId {
    fn from(f: &Formula) -> FormulaId {
        FormulaId::intern(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::var("x")
    }

    #[test]
    fn structurally_equal_terms_share_an_id() {
        let a = x().add(Term::int(1));
        let b = Term::var("x").add(Term::int(1));
        assert_eq!(TermId::intern(&a), TermId::intern(&b));
        let c = Term::int(1).add(x());
        assert_ne!(TermId::intern(&a), TermId::intern(&c), "addition is not commuted by interning");
    }

    #[test]
    fn term_round_trips() {
        let t = Term::var("a").store(x(), Term::int(0)).select(Term::app("f", vec![x()]));
        assert_eq!(TermId::intern(&t).to_term(), t);
    }

    #[test]
    fn formula_round_trips_and_distinguishes() {
        let f = Formula::and(vec![
            Formula::le(x(), Term::int(3)),
            Formula::or(vec![Formula::eq(x(), Term::int(0)), Formula::gt(x(), Term::int(1))]),
        ]);
        let id = FormulaId::intern(&f);
        assert_eq!(id.to_formula(), f);
        assert_eq!(FormulaId::intern(&f.clone()), id);
        let g = Formula::le(x(), Term::int(4));
        assert_ne!(FormulaId::intern(&g), id);
    }

    #[test]
    fn quantifiers_intern_by_bound_variable_and_body() {
        let k = Symbol::intern("k");
        let j = Symbol::intern("j");
        let body = |v: Symbol| Formula::eq(Term::var("a").select(Term::Bound(v)), Term::int(0));
        let fk = Formula::forall(vec![k], body(k));
        let fj = Formula::forall(vec![j], body(j));
        assert_eq!(FormulaId::intern(&fk), FormulaId::intern(&fk.clone()));
        // No alpha-conversion: distinct bound names are distinct formulas,
        // matching structural (and rendered) equality.
        assert_ne!(FormulaId::intern(&fk), FormulaId::intern(&fj));
        assert_eq!(FormulaId::intern(&fk).to_formula(), fk);
    }

    #[test]
    fn sequences_are_order_sensitive_and_shared() {
        let a = SeqId::intern(&[1, 2, 3]);
        let b = SeqId::intern(&[1, 2, 3]);
        let c = SeqId::intern(&[3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(SeqId::empty(), a);
    }

    #[test]
    fn cons_stacks_have_stable_identity() {
        let s0 = SeqId::empty();
        let s1 = SeqId::cons(s0, 7);
        let s2 = SeqId::cons(s1, 9);
        // Re-building the same stack step by step reproduces the same ids.
        assert_eq!(SeqId::cons(SeqId::cons(SeqId::empty(), 7), 9), s2);
        assert_ne!(s1, s2);
    }

    #[test]
    fn distinct_terms_get_distinct_ids_across_shards() {
        // Many distinct constants scatter across shards; their encoded ids
        // must still be pairwise distinct and round-trip exactly.
        let ids: Vec<TermId> = (0..200).map(|i| TermId::intern(&Term::int(i))).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.to_term(), Term::int(i as i128));
            for other in &ids[i + 1..] {
                assert_ne!(id, other);
            }
        }
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        // Every thread interns the same batch of terms; hash consing must
        // make them all agree on every id, regardless of interleaving.
        let make = |i: i128| x().add(Term::int(i)).mul(Term::var("y").sub(Term::int(i)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    (0..64).map(|i| TermId::intern(&make(i))).collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<TermId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &results[1..] {
            assert_eq!(ids, &results[0]);
        }
        for (i, id) in results[0].iter().enumerate() {
            assert_eq!(id.to_term(), make(i as i128));
        }
    }
}
