//! Hand-built scenario schemas exercising the paper's motivating examples.
//!
//! - [`order_processing`]: the §3 order-fulfilment workflow whose
//!   conflicting steps motivate *relative ordering* (Figure 2) — orders
//!   must consume shared parts in arrival order.
//! - [`travel_booking`]: parallel flight/hotel/car reservations with
//!   compensation (the classic saga shape) plus an if-then-else upgrade
//!   branch — the Figure 3 rollback/branch-switch scenario.
//! - [`claim_processing`]: an insurance claim flow with a nested
//!   fraud-check workflow and a loop for document resubmission.
//!
//! All three use programs registered by [`register_programs`], which
//! simulate inventory/booking/claims resource managers deterministically.

use crew_exec::{FnProgram, ProgramCtx, ProgramRegistry, StepFailure};
use crew_model::{
    CmpOp, CompensationKind, Expr, ItemKey, ReexecPolicy, SchemaBuilder, SchemaId, StepKind, Value,
    WorkflowSchema,
};

/// Schema id conventions for the scenario suite.
pub const ORDER_SCHEMA: SchemaId = SchemaId(1);
/// Travel booking schema id.
pub const TRAVEL_SCHEMA: SchemaId = SchemaId(2);
/// Claim processing (parent) schema id.
pub const CLAIM_SCHEMA: SchemaId = SchemaId(3);
/// Fraud check (nested child of claims) schema id.
pub const FRAUD_SCHEMA: SchemaId = SchemaId(4);

/// Register the scenario programs into `registry`.
pub fn register_programs(registry: &mut ProgramRegistry) {
    // Inventory check: in-stock iff requested quantity (input 0) <= 100.
    registry.register(
        "inv.check",
        FnProgram(|ctx: &ProgramCtx| {
            let qty = ctx.int_input(0, 0);
            Ok(vec![Value::Bool(qty <= 100), Value::Int(qty)])
        }),
    );
    // Inventory reserve: emits a reservation token derived from the order.
    registry.register(
        "inv.reserve",
        FnProgram(|ctx: &ProgramCtx| {
            let qty = ctx.int_input(0, 0);
            Ok(vec![
                format!("rsv-{}-{}", ctx.instance.serial, ctx.attempt).into(),
                Value::Int(qty),
            ])
        }),
    );
    registry.register("inv.release", FnProgram(|_: &ProgramCtx| Ok(vec![])));
    // Payment: fails when the amount (input 0) is negative.
    registry.register(
        "pay.charge",
        FnProgram(|ctx: &ProgramCtx| {
            let amount = ctx.int_input(0, 0);
            if amount < 0 {
                return Err(StepFailure::new("negative amount"));
            }
            Ok(vec![
                format!("chg-{}", ctx.instance.serial).into(),
                Value::Int(amount),
            ])
        }),
    );
    registry.register("pay.refund", FnProgram(|_: &ProgramCtx| Ok(vec![])));
    // Shipping.
    registry.register(
        "ship.dispatch",
        FnProgram(|ctx: &ProgramCtx| Ok(vec![format!("shp-{}", ctx.instance.serial).into()])),
    );
    // Bookings: each emits a confirmation code; price returned as output 2.
    for (name, base) in [
        ("book.flight", 400i64),
        ("book.hotel", 150),
        ("book.car", 60),
    ] {
        registry.register(
            name,
            FnProgram(move |ctx: &ProgramCtx| {
                let days = ctx.int_input(0, 1).max(1);
                Ok(vec![
                    format!("cnf-{}-{}", ctx.instance.serial, ctx.attempt).into(),
                    Value::Int(base * days),
                ])
            }),
        );
    }
    for name in ["cancel.flight", "cancel.hotel", "cancel.car"] {
        registry.register(name, FnProgram(|_: &ProgramCtx| Ok(vec![])));
    }
    // Itinerary totals the three booking prices.
    registry.register(
        "itinerary.total",
        FnProgram(|ctx: &ProgramCtx| {
            let total: i64 = (0..ctx.inputs.len()).map(|i| ctx.int_input(i, 0)).sum();
            Ok(vec![Value::Int(total)])
        }),
    );
    // Claims.
    registry.register(
        "claim.intake",
        FnProgram(|ctx: &ProgramCtx| {
            let amount = ctx.int_input(0, 0);
            Ok(vec![Value::Int(amount), Value::Bool(amount > 5000)])
        }),
    );
    registry.register(
        "claim.assess",
        FnProgram(|ctx: &ProgramCtx| {
            let amount = ctx.int_input(0, 0);
            // Documents complete after the second visit.
            Ok(vec![
                Value::Bool(ctx.attempt >= 1),
                Value::Int(amount * 9 / 10),
            ])
        }),
    );
    registry.register(
        "claim.payout",
        FnProgram(|ctx: &ProgramCtx| Ok(vec![Value::Int(ctx.int_input(0, 0))])),
    );
    registry.register("claim.reclaim", FnProgram(|_: &ProgramCtx| Ok(vec![])));
    registry.register(
        "fraud.screen",
        FnProgram(|ctx: &ProgramCtx| {
            let amount = ctx.int_input(0, 0);
            Ok(vec![Value::Bool(amount % 1000 == 777)])
        }),
    );
    registry.register(
        "fraud.report",
        FnProgram(|_: &ProgramCtx| Ok(vec![Value::Str("clean".into())])),
    );
}

/// Order processing: CheckStock → ReserveParts → ChargePayment → Dispatch.
///
/// Inputs: `WF.I1` = quantity, `WF.I2` = amount. `ReserveParts` and
/// `Dispatch` are the conflicting steps relative-ordering binds across
/// concurrent orders (they touch the shared parts bin / loading dock).
pub fn order_processing() -> WorkflowSchema {
    let mut b = SchemaBuilder::new(ORDER_SCHEMA, "OrderProcessing").inputs(2);
    let check = b.add_step("CheckStock", "inv.check");
    let reserve = b.add_step("ReserveParts", "inv.reserve");
    let charge = b.add_step("ChargePayment", "pay.charge");
    let dispatch = b.add_step("Dispatch", "ship.dispatch");
    b.seq(check, reserve)
        .seq(reserve, charge)
        .seq(charge, dispatch);
    b.read(check, ItemKey::input(1));
    b.read(reserve, ItemKey::input(1));
    b.read(charge, ItemKey::input(2));
    b.configure(check, |d| d.kind = StepKind::Query);
    b.configure(reserve, |d| {
        d.compensation_program = Some("inv.release".into());
        d.output_slots = 2;
    });
    b.configure(charge, |d| {
        d.compensation_program = Some("pay.refund".into());
        d.output_slots = 2;
    });
    // Reservation and payment undo in reverse order if either re-executes.
    b.compensation_set([reserve, charge]);
    b.on_failure_rollback_to(charge, reserve);
    b.build().expect("order schema is valid")
}

/// Travel booking (Figure 3 shape): Quote → AND(Flight, Hotel, Car) →
/// Total → XOR(PremiumInsurance | BasicInsurance) → Confirm.
///
/// Inputs: `WF.I1` = trip days. Total > 800 takes the premium branch; a
/// rollback that changes the total can switch branches, exercising
/// `CompensateThread`.
pub fn travel_booking() -> WorkflowSchema {
    let mut b = SchemaBuilder::new(TRAVEL_SCHEMA, "TravelBooking").inputs(1);
    let quote = b.add_step("Quote", "passthrough");
    let flight = b.add_step("BookFlight", "book.flight");
    let hotel = b.add_step("BookHotel", "book.hotel");
    let car = b.add_step("BookCar", "book.car");
    let total = b.add_step("Total", "itinerary.total");
    let premium = b.add_step("PremiumInsurance", "stamp");
    let basic = b.add_step("BasicInsurance", "stamp");
    let confirm = b.add_step("Confirm", "stamp");
    b.read(quote, ItemKey::input(1));
    b.and_split(quote, [flight, hotel, car]);
    for s in [flight, hotel, car] {
        b.read(s, ItemKey::input(1));
        b.configure(s, |d| d.output_slots = 2);
    }
    b.configure(flight, |d| {
        d.compensation_program = Some("cancel.flight".into())
    });
    b.configure(hotel, |d| {
        d.compensation_program = Some("cancel.hotel".into())
    });
    b.configure(car, |d| d.compensation_program = Some("cancel.car".into()));
    b.and_join([flight, hotel, car], total);
    for (s, slot) in [(flight, 2), (hotel, 2), (car, 2)] {
        b.read(total, ItemKey::output(s, slot));
    }
    let premium_cond = Expr::cmp(
        CmpOp::Gt,
        Expr::item(ItemKey::output(total, 1)),
        Expr::lit(800),
    );
    b.xor_split(total, [(premium, Some(premium_cond)), (basic, None)]);
    b.xor_join([premium, basic], confirm);
    // OCR policies: bookings reuse their previous confirmations when the
    // trip length is unchanged; cancellations are partial.
    for s in [flight, hotel, car] {
        b.configure(s, |d| {
            d.reexec = ReexecPolicy::IfInputsChanged;
            d.compensation_kind = CompensationKind::Partial;
        });
    }
    b.on_failure_rollback_to(total, quote);
    b.build().expect("travel schema is valid")
}

/// Claim processing with a nested fraud-check workflow and an assessment
/// resubmission loop.
///
/// Inputs: `WF.I1` = claim amount. Intake → FraudCheck (nested) → Assess
/// (loops until documents complete) → Payout.
pub fn claim_processing() -> WorkflowSchema {
    let mut b = SchemaBuilder::new(CLAIM_SCHEMA, "ClaimProcessing").inputs(1);
    let intake = b.add_step("Intake", "claim.intake");
    let fraud = b.add_nested("FraudCheck", FRAUD_SCHEMA);
    let assess = b.add_step("Assess", "claim.assess");
    let payout = b.add_step("Payout", "claim.payout");
    b.read(intake, ItemKey::input(1));
    b.configure(intake, |d| d.output_slots = 2);
    b.configure(fraud, |d| {
        d.inputs = vec![ItemKey::output(intake, 1)];
        d.output_slots = 1;
    });
    b.read(assess, ItemKey::output(intake, 1));
    b.configure(assess, |d| d.output_slots = 2);
    b.read(payout, ItemKey::output(assess, 2));
    b.configure(payout, |d| {
        d.compensation_program = Some("claim.reclaim".into());
    });
    b.seq(intake, fraud).seq(fraud, assess).seq(assess, payout);
    // Loop: re-assess while documents are incomplete (output 1 false).
    let docs_incomplete = Expr::eq(Expr::item(ItemKey::output(assess, 1)), Expr::lit(false));
    b.loop_back(assess, assess, docs_incomplete);
    b.build().expect("claim schema is valid")
}

/// The nested fraud-check child workflow: Screen → Report.
pub fn fraud_check() -> WorkflowSchema {
    let mut b = SchemaBuilder::new(FRAUD_SCHEMA, "FraudCheck").inputs(1);
    let screen = b.add_step("Screen", "fraud.screen");
    let report = b.add_step("Report", "fraud.report");
    b.read(screen, ItemKey::input(1));
    b.seq(screen, report);
    b.configure(screen, |d| d.kind = StepKind::Query);
    b.configure(report, |d| d.kind = StepKind::Query);
    b.build().expect("fraud schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_schemas_validate() {
        assert_eq!(order_processing().step_count(), 4);
        assert_eq!(travel_booking().step_count(), 8);
        assert_eq!(claim_processing().step_count(), 4);
        assert_eq!(fraud_check().step_count(), 2);
    }

    #[test]
    fn programs_cover_every_step() {
        let mut reg = ProgramRegistry::with_builtins();
        register_programs(&mut reg);
        for schema in [
            order_processing(),
            travel_booking(),
            claim_processing(),
            fraud_check(),
        ] {
            for def in schema.steps() {
                if def.program != crew_model::NESTED_PROGRAM {
                    assert!(
                        reg.get(&def.program).is_some(),
                        "missing program {:?} for {} of {}",
                        def.program,
                        def.id,
                        schema.name
                    );
                }
                if let Some(c) = &def.compensation_program {
                    assert!(reg.get(c).is_some(), "missing compensation {c:?}");
                }
            }
        }
    }

    #[test]
    fn travel_has_figure3_shape() {
        let s = travel_booking();
        // An XOR split at Total with a confluence at Confirm.
        let total = s.steps().find(|d| d.name == "Total").unwrap().id;
        assert_eq!(s.split_kind(total), Some(crew_model::SplitKind::Xor));
        assert!(s.confluence_of(total).is_some());
        // Terminal is Confirm only.
        assert_eq!(s.terminal_steps().len(), 1);
    }

    #[test]
    fn claim_loop_and_nesting_declared() {
        let s = claim_processing();
        assert!(s.arcs().iter().any(|a| a.loop_back));
        assert_eq!(s.nested.len(), 1);
    }
}
