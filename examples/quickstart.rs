//! Quickstart: build a small program, compile it with full Turnpike, run it
//! on the simulated in-order core, and compare against Turnstile.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use turnpike::compiler::{compile, CompilerConfig};
use turnpike::ir::{DataSegment, FunctionBuilder, Operand, Program};
use turnpike::sim::{Core, RunOpts, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny kernel: write squares into an array, then sum them back.
    let mut b = FunctionBuilder::new("squares");
    let base = b.param();
    let (i, t, v, acc, c) = (
        b.fresh_reg(),
        b.fresh_reg(),
        b.fresh_reg(),
        b.fresh_reg(),
        b.fresh_reg(),
    );
    let wloop = b.create_block();
    let mid = b.create_block();
    let rloop = b.create_block();
    let done = b.create_block();
    b.mov(i, 0i64);
    b.jump(wloop);
    b.switch_to(wloop);
    b.mul(v, i, Operand::Reg(i));
    b.shl(t, i, 3i64);
    b.add(t, t, Operand::Reg(base));
    b.store(v, t, 0);
    b.add(i, i, 1i64);
    b.cmp_lt(c, i, 64i64);
    b.branch(c, wloop, mid);
    b.switch_to(mid);
    b.mov(i, 0i64);
    b.mov(acc, 0i64);
    b.jump(rloop);
    b.switch_to(rloop);
    b.shl(t, i, 3i64);
    b.add(t, t, Operand::Reg(base));
    b.load(v, t, 0);
    b.add(acc, acc, Operand::Reg(v));
    b.add(i, i, 1i64);
    b.cmp_lt(c, i, 64i64);
    b.branch(c, rloop, done);
    b.switch_to(done);
    b.ret(Some(Operand::Reg(acc)));
    let program = Program::with_params(
        b.finish()?,
        DataSegment::zeroed(0x1_0000, 64),
        vec![0x1_0000],
    );

    // Golden semantics from the reference interpreter.
    let golden = turnpike::ir::interp::golden(&program)?;
    println!("golden result: {:?}", golden.0);

    // Compile + simulate three ways.
    for (label, cc, sc) in [
        (
            "baseline ",
            CompilerConfig::baseline(),
            SimConfig::baseline(),
        ),
        (
            "turnstile",
            CompilerConfig::turnstile(4),
            SimConfig::turnstile(4, 10),
        ),
        (
            "turnpike ",
            CompilerConfig::turnpike(4),
            SimConfig::turnpike(4, 10),
        ),
    ] {
        let compiled = compile(&program, &cc)?;
        let out = Core::new(&compiled.program, sc).run(RunOpts::default())?;
        println!(
            "{label}: ret={:?} cycles={:>6} ipc={:.2} ckpts={} bypass={:.0}%",
            out.ret,
            out.stats.cycles,
            out.stats.ipc(),
            out.stats.ckpts,
            out.stats.bypass_ratio() * 100.0
        );
        assert_eq!(out.ret, golden.0, "{label} must match the golden run");
    }
    Ok(())
}
