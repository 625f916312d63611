use medkb_eval::pipeline::{EvalConfig, EvalStack};
use medkb_eval::relax_eval::{build_workload, evaluate_relaxation_on};
use medkb_eval::evaluate_mappings;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let stack = EvalStack::build(EvalConfig::paper(2020)).unwrap();
    eprintln!("stack built in {:?}", t0.elapsed());
    eprintln!("world: {} concepts, {} instances, {} mapped, {} shortcuts",
        stack.world.terminology.ekg.len(), stack.world.kb.instance_count(),
        stack.ingested.mappings.len(), stack.ingested.shortcuts.len());
    let t1 = Instant::now();
    for row in evaluate_mappings(&stack) {
        println!("T1 {:<10} P={:6.2} R={:6.2} F1={:6.2}", row.method, row.prf.precision, row.prf.recall, row.prf.f1);
    }
    eprintln!("table1 in {:?}", t1.elapsed());
    let t2 = Instant::now();
    let w = build_workload(&stack, 100);
    for th in [0.08, 0.10, 0.13] {
        println!("--- threshold {th} ---");
        for row in evaluate_relaxation_on(&stack, &w, th) {
            println!("T2 {:<22} P@10={:6.2} R@10={:6.2} F1={:6.2} ({} q)", row.method, row.prf.precision, row.prf.recall, row.prf.f1, row.queries);
        }
    }
    eprintln!("table2 in {:?}", t2.elapsed());
}
