//! Constant folding over [`Expr`] for the static passes.
//!
//! The linter cannot evaluate data-dependent conditions, but conditions
//! that fold to a constant regardless of the data table are statically
//! decidable: a loop-continue condition that folds to `true` never exits,
//! an XOR arc whose condition folds to `false` is dead. Folding mirrors
//! the runtime [`Expr::eval`] semantics exactly — a folded subtree is
//! re-evaluated through the real evaluator on constant leaves, so the
//! lint never disagrees with what the engines would compute.

use crew_model::{DataEnv, Expr, Value};

/// Fold `expr` to a constant [`Value`] if it does not depend on the data
/// table. Returns `None` for anything touching an item (or whose constant
/// evaluation fails, e.g. a type error — those surface at run time).
pub fn fold(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Const(v) => Some(v.clone()),
        // Items and definedness depend on the instance data table.
        Expr::Item(_) | Expr::Defined(_) => None,
        Expr::Not(inner) => fold_bool(inner).map(|b| Value::Bool(!b)),
        Expr::And(l, r) => fold_junction(l, r, false),
        Expr::Or(l, r) => fold_junction(l, r, true),
        Expr::Cmp(op, l, r) => {
            let (l, r) = (fold(l)?, fold(r)?);
            eval_const(Expr::cmp(*op, Expr::Const(l), Expr::Const(r)))
        }
        Expr::Arith(op, l, r) => {
            let (l, r) = (fold(l)?, fold(r)?);
            eval_const(Expr::arith(*op, Expr::Const(l), Expr::Const(r)))
        }
    }
}

/// Fold `expr` to a boolean if possible (truthiness per the runtime's
/// [`Value::as_bool`]).
pub fn fold_bool(expr: &Expr) -> Option<bool> {
    fold(expr).and_then(|v| v.as_bool())
}

/// And/Or with short-circuiting: one decided absorbing side folds the
/// junction even when the other side depends on data (`false && x` is
/// `false` for every `x`).
fn fold_junction(l: &Expr, r: &Expr, absorbing: bool) -> Option<Value> {
    match (fold_bool(l), fold_bool(r)) {
        (Some(a), _) if a == absorbing => Some(Value::Bool(absorbing)),
        (_, Some(b)) if b == absorbing => Some(Value::Bool(absorbing)),
        // Both sides decided and neither absorbs: the junction resolves to
        // the non-absorbing value (`true && true`, `false || false`).
        (Some(_), Some(_)) => Some(Value::Bool(!absorbing)),
        _ => None,
    }
}

/// Evaluate an item-free expression through the runtime evaluator.
fn eval_const(e: Expr) -> Option<Value> {
    e.eval(&DataEnv::new()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{CmpOp, ItemKey};

    #[test]
    fn constants_fold() {
        assert_eq!(fold_bool(&Expr::lit(true)), Some(true));
        assert_eq!(
            fold_bool(&Expr::cmp(CmpOp::Gt, Expr::lit(3), Expr::lit(2))),
            Some(true)
        );
        assert_eq!(
            fold_bool(&Expr::not(Expr::cmp(CmpOp::Lt, Expr::lit(3), Expr::lit(2)))),
            Some(true)
        );
    }

    #[test]
    fn items_do_not_fold() {
        let item = Expr::item(ItemKey::input(1));
        assert_eq!(fold(&item), None);
        assert_eq!(
            fold_bool(&Expr::cmp(CmpOp::Eq, item.clone(), Expr::lit(1))),
            None
        );
        assert_eq!(fold(&Expr::Defined(ItemKey::input(1))), None);
    }

    #[test]
    fn junctions_short_circuit() {
        let unknown = Expr::cmp(CmpOp::Eq, Expr::item(ItemKey::input(1)), Expr::lit(1));
        assert_eq!(
            fold_bool(&Expr::and(Expr::lit(false), unknown.clone())),
            Some(false)
        );
        assert_eq!(
            fold_bool(&Expr::or(unknown.clone(), Expr::lit(true))),
            Some(true)
        );
        assert_eq!(
            fold_bool(&Expr::and(Expr::lit(true), unknown.clone())),
            None
        );
        assert_eq!(fold_bool(&Expr::or(unknown, Expr::lit(false))), None);
    }

    #[test]
    fn arithmetic_folds_through_runtime_semantics() {
        let e = Expr::cmp(
            CmpOp::Ge,
            Expr::arith(crew_model::ArithOp::Add, Expr::lit(2), Expr::lit(3)),
            Expr::lit(5),
        );
        assert_eq!(fold_bool(&e), Some(true));
    }

    #[test]
    fn comparison_folding_edge_cases() {
        // Extremes of the int range compare exactly.
        assert_eq!(
            fold_bool(&Expr::cmp(
                CmpOp::Lt,
                Expr::lit(i64::MIN),
                Expr::lit(i64::MAX)
            )),
            Some(true)
        );
        assert_eq!(
            fold_bool(&Expr::cmp(CmpOp::Le, Expr::lit(5), Expr::lit(5))),
            Some(true)
        );
        assert_eq!(
            fold_bool(&Expr::cmp(CmpOp::Ne, Expr::lit(0), Expr::lit(-0))),
            Some(false)
        );
        // Mixed int/float comparison goes through the runtime's widening.
        assert_eq!(
            fold_bool(&Expr::cmp(CmpOp::Eq, Expr::lit(2), Expr::lit(2.0))),
            Some(true)
        );
        // Wrapping shows up in folded comparisons exactly as at run time:
        // i64::MAX + 1 wraps negative.
        let wrapped = Expr::arith(crew_model::ArithOp::Add, Expr::lit(i64::MAX), Expr::lit(1));
        assert_eq!(
            fold_bool(&Expr::cmp(CmpOp::Lt, wrapped, Expr::lit(0))),
            Some(true)
        );
        // Division by zero does not fold (surfaces at run time).
        let div0 = Expr::arith(crew_model::ArithOp::Div, Expr::lit(1), Expr::lit(0));
        assert_eq!(fold(&div0), None);
    }
}
