//! # qbe-algebra — one query IR, one optimizer, one evaluator for every graph front-end
//!
//! The paper's graph setting grows several query dialects — regular path queries, 2RPQs with
//! inverse labels, nested regular expressions, conjunctions with projection, SPARQL-style
//! triple patterns — and before this crate each spoke its own AST with its own evaluator. Here
//! they all lower to a single hash-consed IR:
//!
//! * [`ir`] — the interned expression DAG ([`QueryStore`], [`ExprId`]) whose smart constructors
//!   *are* the rewrite optimizer: ε/concat/alt flattening and dedup, star/plus/opt collapsing,
//!   inverse push-down to the leaves (no stored `Inverse` node). [`QueryStore::intern_raw`] and
//!   [`QueryStore::optimize`] expose the optimizer-off/on pair the benches compare.
//! * [`conj`] — conjunctions of path atoms with variable endpoints and projection
//!   ([`ConjQuery`]), plus the selectivity-ordered left-deep join planner
//!   ([`plan_join_order`]).
//! * [`eval`] — lowering onto the dense-bitset kernels: the [`Adjacency`] trait (forward and
//!   reverse per-label successor bitsets, so `ℓ⁻` is native), bitset-row relations ([`Rel`]),
//!   the memoising [`EvalCache`] that turns hash-consing into cross-candidate
//!   common-subexpression elimination, and the backtracking conjunction join with lazy atom
//!   evaluation and a satisfiability early-exit.
//!
//! Because expressions are hash-consed, structural equality is pointer equality ([`ExprId`]),
//! and a candidate pool sharing one [`EvalCache`] evaluates each distinct subquery once per
//! round — the cross-candidate CSE the interactive sessions build on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conj;
pub mod eval;
pub mod ir;

pub use conj::{plan_join_order, CardinalityEstimator, ConjQuery, PathAtom, Term};
pub use eval::{eval_conj, eval_expr, Adjacency, EvalCache, Rel};
pub use ir::{Expr, ExprId, QueryStore, Sym, SymbolTable};
