//! Helpers shared by the trace integration tests.

use turnpike_sim::{shared_sink, Core, FaultPlan, RunOpts, SimError, SimOutcome, Trace};

/// Run `core` under `plan` with a ring buffer of the last `cap` events
/// attached as its trace sink.
pub fn run_traced(
    mut core: Core<'_>,
    plan: &FaultPlan,
    cap: usize,
) -> Result<(SimOutcome, Trace), SimError> {
    let sink = shared_sink(Trace::new(cap));
    core.attach_sink(sink.clone());
    let out = core.run(RunOpts {
        faults: plan,
        ..RunOpts::default()
    })?;
    let Ok(trace) = std::rc::Rc::try_unwrap(sink) else {
        unreachable!("the run consumed the core and its sink handle")
    };
    Ok((out, trace.into_inner()))
}
