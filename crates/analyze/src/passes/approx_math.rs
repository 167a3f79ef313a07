//! APPROX_MATH — raw transcendental calls in hot-path files.
//!
//! Every hot-loop exponential goes through the vetted `cqm-math::fastexp`
//! entry point `exp_exact` (bit-identical to `f64::exp`). That funnel is
//! what makes the precision contract auditable — a reviewer can read one
//! module and know every transcendental the evaluation pipeline runs. A
//! bare `.exp()` or `.powf()` sprinkled into a kernel later silently widens
//! that surface: it gets "optimised" ad hoc without anything proving the
//! kernels still match their scalar reference bit for bit.
//!
//! Like [`HOT_LOOP_ALLOC`](super::HotLoopAlloc), the pass is opt-in per
//! file: it only runs on files carrying the `// analyze: hot-path` marker
//! comment, so config code and one-off tooling can call `f64::exp` freely.
//! Call sites with a genuine reason (e.g. a cold error path inside a tagged
//! file) are suppressed the usual way with
//! `// lint: allow(APPROX_MATH) -- reason`.

use super::{find_all, Finding, Level, LintPass, HOT_PATH_TAG};
use crate::scanner::SourceFile;

/// See module docs.
pub struct ApproxMath;

const ID: &str = "APPROX_MATH";

/// Method-call patterns that bypass the vetted `cqm-math` funnel, paired
/// with the entry point the finding should steer the author toward.
///
/// The leading `.` plus trailing `(` keeps the match to actual method
/// calls: `fastexp::exp_exact(x)` contains the substring `exp` but never
/// `.exp(`.
const RAW_CALLS: &[(&str, &str)] = &[
    (".exp(", "cqm_math::fastexp::exp_exact"),
    (".powf(", "cqm_math (powi, ln_checked, or a precomputed table)"),
];

impl LintPass for ApproxMath {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "flags direct .exp()/.powf() calls in files tagged \
         `// analyze: hot-path`; route them through the vetted cqm-math \
         entry points so the precision contract stays in one module"
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if !file.has_tag(HOT_PATH_TAG) {
            return;
        }
        let joined = file.joined_code();
        for &(pattern, route) in RAW_CALLS {
            for pos in find_all(joined, pattern) {
                let lineno = file.line_of(pos);
                let Some(l) = file.lines.get(lineno - 1) else {
                    continue;
                };
                if l.in_test {
                    continue;
                }
                let method = &pattern[1..pattern.len() - 1];
                findings.push(Finding {
                    file: file.path.clone(),
                    line: lineno,
                    lint: ID,
                    message: format!(
                        "direct `.{method}()` in a hot-path file bypasses the \
                         vetted math funnel; route through {route} so the \
                         precision contract stays auditable"
                    ),
                    level: Level::Warn,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::scan(Path::new("t.rs"), src);
        let mut out = Vec::new();
        ApproxMath.check(&file, &mut out);
        out
    }

    const TAG: &str = "// analyze: hot-path\n";

    #[test]
    fn untagged_file_is_ignored() {
        let f = run("pub fn g(x: f64) -> f64 {\n    x.exp() + x.powf(2.0)\n}\n");
        assert!(f.is_empty(), "got {f:?}");
    }

    #[test]
    fn tagged_file_flags_exp_and_powf() {
        let src = format!(
            "{TAG}pub fn g(x: f64, s: f64) -> f64 {{\n\
             \x20   let a = (-0.5 * x * x).exp();\n\
             \x20   a * s.powf(0.5)\n\
             }}\n"
        );
        let f = run(&src);
        assert_eq!(f.len(), 2, "got {f:?}");
        assert!(f.iter().all(|x| x.level == Level::Warn));
        assert!(f[0].message.contains("exp_exact"), "{}", f[0].message);
        assert!(f[1].message.contains(".powf()"), "{}", f[1].message);
    }

    #[test]
    fn vetted_entry_points_are_not_method_calls() {
        let src = format!(
            "{TAG}use cqm_math::fastexp;\n\
             pub fn g(x: f64) -> f64 {{\n\
             \x20   fastexp::exp_exact(-0.5 * x * x) + fastexp::exp_bounded(x)\n\
             }}\n"
        );
        let f = run(&src);
        assert!(f.is_empty(), "free-function calls misread: {f:?}");
    }

    #[test]
    fn test_module_calls_are_skipped() {
        let src = format!(
            "{TAG}pub fn g(x: f64) -> f64 {{\n\
             \x20   x * 2.0\n\
             }}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
             \x20   fn reference(x: f64) -> f64 {{\n\
             \x20       x.exp()\n\
             \x20   }}\n\
             }}\n"
        );
        let f = run(&src);
        assert!(f.is_empty(), "test oracle flagged: {f:?}");
    }

    #[test]
    fn pragma_suppresses_a_reasoned_call() {
        let src = format!(
            "{TAG}pub fn cold_diagnostic(x: f64) -> f64 {{\n\
             \x20   // lint: allow(APPROX_MATH) -- cold error-report path, not the kernel loop\n\
             \x20   x.exp()\n\
             }}\n"
        );
        let file = SourceFile::scan(Path::new("t.rs"), &src);
        let passes: Vec<Box<dyn LintPass>> = vec![Box::new(ApproxMath)];
        let a = crate::analyze_file(&file, &passes);
        assert!(a.findings.is_empty(), "got {:?}", a.findings);
        assert_eq!(a.suppressed, 1);
    }
}
