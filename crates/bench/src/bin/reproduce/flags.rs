//! The flag cursor every `reproduce` subcommand parses its arguments with.
//!
//! A subcommand walks its arguments with [`Flags::next`] and takes a flag's
//! value with [`Flags::value`], [`Flags::num`], [`Flags::float`],
//! [`Flags::threads`] or [`Flags::parsed`]; [`Flags::job`] applies the job
//! fields `submit` and `coordinate` share. Every parse failure is a
//! [`Fail`] with exit code 2 whose message names the flag; `main` prefixes
//! the subcommand.

use turnpike_serve::{JobKind, JobRequest};

/// Ceiling of every flag whose value is a number of OS threads to start:
/// `--threads`, `serve --workers` and `fleet-bench --jobs`.
pub const MAX_THREADS: u64 = 1024;

/// Why a subcommand stopped early: its exit code and the message `main`
/// prints after `reproduce <subcommand>: `.
#[derive(Debug)]
pub struct Fail {
    pub code: u8,
    pub msg: String,
}

impl Fail {
    /// A bad command line (exit 2).
    pub fn args(msg: impl Into<String>) -> Fail {
        Fail {
            code: 2,
            msg: msg.into(),
        }
    }

    /// A failed run (exit 1).
    pub fn run(msg: impl std::fmt::Display) -> Fail {
        Fail {
            code: 1,
            msg: msg.to_string(),
        }
    }
}

/// What a subcommand returns.
pub type Done = Result<(), Fail>;

/// A cursor over one subcommand's arguments.
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The argument [`Flags::next`] returned last; errors name it.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    pub fn new(args: &'a [String]) -> Flags<'a> {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next argument: a flag, or a positional operand.
    pub fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The current flag's value, converted by `parse`; `what` describes
    /// an acceptable value for the error message.
    pub fn parsed<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, Fail> {
        let flag = self.flag;
        match self.args.next() {
            Some(v) => {
                parse(v).ok_or_else(|| Fail::args(format!("{flag} takes {what}, got '{v}'")))
            }
            None => Err(Fail::args(format!("{flag} takes {what}, got nothing"))),
        }
    }

    /// The current flag's value, verbatim.
    pub fn value(&mut self) -> Result<String, Fail> {
        self.parsed("a value", |v| Some(v.to_string()))
    }

    /// The current flag's value as an integer in `lo..=hi`, in the
    /// caller's integer type.
    pub fn num<T: TryFrom<u64>>(&mut self, lo: u64, hi: u64) -> Result<T, Fail> {
        let what = match hi {
            u64::MAX => format!("an integer >= {lo}"),
            _ => format!("an integer in {lo}..={hi}"),
        };
        self.parsed(&what, |v| int(v, lo, hi))
    }

    /// The current flag's value as a number above `lo` and below `hi`
    /// (an infinite `hi` leaves it unbounded above).
    pub fn float(&mut self, lo: f64, hi: f64) -> Result<f64, Fail> {
        let what = match hi {
            f64::INFINITY => format!("a number > {lo}"),
            _ => format!("a number in ({lo}, {hi})"),
        };
        self.parsed(&what, |v| {
            v.parse()
                .ok()
                .filter(|&x: &f64| x > lo && (x < hi || hi == f64::INFINITY))
        })
    }

    /// `--threads`: an evaluation thread count, with the default named in
    /// the error (`0` silently meaning "default" was a trap).
    pub fn threads(&mut self) -> Result<usize, Fail> {
        let what = format!(
            "an integer in 1..={MAX_THREADS} (default: all hardware threads, {} here)",
            default_threads()
        );
        self.parsed(&what, |v| int(v, 1, MAX_THREADS))
    }

    /// Apply the current flag to `req` when it names a job field, taking
    /// its value; `Ok(false)` (nothing taken) when it does not.
    pub fn job(&mut self, req: &mut JobRequest) -> Result<bool, Fail> {
        match self.flag {
            "--kind" => req.kind = self.parsed("compile|run|campaign|figure", JobKind::parse)?,
            "--kernel" => req.kernel = self.value()?,
            "--scheme" => req.scheme = self.value()?,
            "--scale" => req.scale = self.value()?,
            "--sb" => req.sb = self.num(0, u32::MAX.into())?,
            "--wcdl" => req.wcdl = self.num(0, u64::MAX)?,
            "--runs" => req.runs = self.num(0, u64::MAX)?,
            "--seed" => req.seed = self.num(0, u64::MAX)?,
            "--strikes" => req.strikes = self.num(0, u64::MAX)?,
            "--target" => req.target = self.value()?,
            "--clq" => req.clq = self.value()?,
            "--colors" => req.colors = self.num(0, 255)?,
            "--geom" => req.geom = self.value()?,
            "--tag" => req.tag = self.value()?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The error for an argument the subcommand does not take.
    pub fn unknown(&self) -> Fail {
        Fail::args(format!("unexpected argument '{}'", self.flag))
    }
}

/// `v` as an integer in `lo..=hi`, converted to `T`.
fn int<T: TryFrom<u64>>(v: &str, lo: u64, hi: u64) -> Option<T> {
    let n = v.parse().ok().filter(|n| (lo..=hi).contains(n))?;
    T::try_from(n).ok()
}

pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run subcommand `cmd` on `args`, expecting a command-line error.
    fn reject(cmd: &str, args: &[&str]) -> Fail {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let cmd = crate::COMMANDS.iter().find(|c| c.name == cmd).unwrap();
        let fail = (cmd.run)(&mut Flags::new(&args)).expect_err("bad flag accepted");
        assert_eq!(fail.code, 2, "{}", fail.msg);
        fail
    }

    #[test]
    fn thread_starting_flags_reject_zero_missing_garbage_and_over_limit() {
        // Nothing here starts a server or a thread: each bad value fails the
        // parse, and the trailing unknown flag would fail it even if a bound
        // went missing (the message would then name the wrong flag).
        for (cmd, flag) in [
            ("serve", "--workers"),
            ("serve", "--threads"),
            ("fleet-bench", "--jobs"),
            ("<target>", "--threads"),
            ("explore", "--threads"),
        ] {
            for bad in ["0", "lots", "1025", "-3"] {
                let fail = reject(cmd, &[flag, bad, "--no-such-flag"]);
                assert!(
                    fail.msg.starts_with(flag),
                    "{cmd} {flag} {bad}: {}",
                    fail.msg
                );
                assert!(fail.msg.contains("1..=1024"), "{}", fail.msg);
            }
            let fail = reject(cmd, &[flag]);
            assert!(fail.msg.starts_with(flag) && fail.msg.ends_with("got nothing"));
        }
        let fail = reject("serve", &["--threads", "0", "--no-such-flag"]);
        assert!(
            fail.msg.contains("(default: all hardware threads"),
            "{}",
            fail.msg
        );
        // The ceiling itself is accepted (the next flag is what fails).
        let fail = reject("serve", &["--workers", "1024", "--no-such-flag"]);
        assert_eq!(fail.msg, "unexpected argument '--no-such-flag'");
    }

    #[test]
    fn job_flags_apply_in_place_and_keep_their_bounds() {
        let args: Vec<String> = [
            "--kind", "campaign", "--colors", "255", "--sb", "8", "--addr",
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        let mut f = Flags::new(&args);
        let mut req = JobRequest::new(JobKind::Run);
        while let Some(flag) = f.next() {
            if !f.job(&mut req).unwrap() {
                assert_eq!(flag, "--addr", "only non-job flags fall through");
            }
        }
        assert_eq!((req.kind, req.colors, req.sb), (JobKind::Campaign, 255, 8));
        for (flag, bad) in [
            ("--kind", "sweep"),
            ("--colors", "256"),
            ("--sb", "4294967296"),
        ] {
            let fail = reject("submit", &[flag, bad]);
            assert!(fail.msg.starts_with(flag), "{}", fail.msg);
        }
    }

    #[test]
    fn floats_respect_open_bounds() {
        for (v, ok) in [("0.05", true), ("0", false), ("0.5", false), ("NaN", false)] {
            let args = vec!["--stop-ci".to_string(), v.to_string()];
            let mut f = Flags::new(&args);
            f.next();
            assert_eq!(f.float(0.0, 0.5).is_ok(), ok, "{v}");
        }
    }
}
