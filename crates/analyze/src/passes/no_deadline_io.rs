//! NO_DEADLINE_IO — socket I/O without a deadline in service paths.
//!
//! PR 7's failure model (DESIGN.md §12) requires every blocking socket
//! operation in the serve and resilience layers to carry an explicit
//! budget: a peer that stalls mid-frame, a proxy that eats a byte, or a
//! network that silently drops a segment must surface as a typed
//! [`Timeout`] within a bounded interval — never as a thread parked in
//! `recv` forever. Two patterns defeat that:
//!
//! * `TcpStream::connect(addr)` — the deadline-free connect blocks for
//!   the kernel's SYN-retry horizon (minutes); the codebase's rule is
//!   `TcpStream::connect_timeout(&addr, budget)` everywhere.
//! * `set_read_timeout(None)` / `set_write_timeout(None)` — explicitly
//!   removing a socket deadline re-opens the unbounded-blocking hole the
//!   session loops close with `SESSION_POLL`-sized timeouts.
//!
//! The pass applies to `serve/src` and `resilience/src`. A legitimate
//! exception (e.g. a deliberately deadline-free diagnostic tool) carries
//! a pragma naming where the bound comes from instead.

use super::{find_all, word_boundary_before, Finding, Level, LintPass};
use crate::scanner::SourceFile;

/// See module docs.
pub struct NoDeadlineIo {
    /// Path fragments this pass applies to; empty means every file.
    path_filters: Vec<&'static str>,
}

const ID: &str = "NO_DEADLINE_IO";

impl Default for NoDeadlineIo {
    fn default() -> Self {
        NoDeadlineIo {
            path_filters: vec!["serve/src", "resilience/src"],
        }
    }
}

impl NoDeadlineIo {
    /// A variant with no path restriction (used by tests and fixtures).
    pub fn unrestricted() -> Self {
        NoDeadlineIo {
            path_filters: Vec::new(),
        }
    }
}

impl LintPass for NoDeadlineIo {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "serve/resilience socket I/O must carry a deadline: \
         TcpStream::connect_timeout over connect, and never \
         set_read_timeout(None)/set_write_timeout(None)"
    }

    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if !self.path_filters.is_empty() {
            let p = file.path.to_string_lossy().replace('\\', "/");
            if !self.path_filters.iter().any(|frag| p.contains(frag)) {
                return;
            }
        }
        for (idx, l) in file.lines.iter().enumerate() {
            let lineno = idx + 1;
            if l.in_test {
                continue;
            }
            let code = &l.code;
            // `connect_timeout(` does not match: the pattern requires `(`
            // right after `connect`.
            for pos in find_all(code, "TcpStream::connect(") {
                if !word_boundary_before(code, pos) {
                    continue;
                }
                findings.push(Finding {
                    file: file.path.clone(),
                    line: lineno,
                    lint: ID,
                    message: "deadline-free `TcpStream::connect` blocks for the \
                              kernel's SYN-retry horizon; use \
                              `TcpStream::connect_timeout(&addr, budget)`"
                        .to_string(),
                    level: Level::Deny,
                });
            }
            for pat in ["set_read_timeout(None)", "set_write_timeout(None)"] {
                for pos in find_all(code, pat) {
                    if !word_boundary_before(code, pos) {
                        continue;
                    }
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: lineno,
                        lint: ID,
                        message: format!(
                            "`{pat}` removes the socket deadline and re-opens \
                             unbounded blocking; pass a finite budget (or a \
                             pragma naming where the bound comes from)"
                        ),
                        level: Level::Deny,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run_at(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::scan(Path::new(path), src);
        let mut out = Vec::new();
        NoDeadlineIo::default().check(&file, &mut out);
        out
    }

    #[test]
    fn bare_connect_in_serve_is_flagged() {
        let f = run_at(
            "crates/serve/src/client.rs",
            "fn dial() {\n    let s = std::net::TcpStream::connect(\"127.0.0.1:80\");\n    let _ = s;\n}\n",
        );
        assert_eq!(f.len(), 1, "got {f:?}");
        assert_eq!(f[0].level, Level::Deny);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn connect_timeout_is_clean() {
        let f = run_at(
            "crates/serve/src/client.rs",
            "fn dial(addr: &std::net::SocketAddr, d: std::time::Duration) {\n    let s = std::net::TcpStream::connect_timeout(addr, d);\n    let _ = s;\n}\n",
        );
        assert!(f.is_empty(), "got {f:?}");
    }

    #[test]
    fn clearing_socket_timeouts_is_flagged() {
        let f = run_at(
            "crates/resilience/src/netfault.rs",
            "fn f(s: &std::net::TcpStream) {\n    s.set_read_timeout(None).unwrap();\n    s.set_write_timeout(None).unwrap();\n}\n",
        );
        assert_eq!(f.len(), 2, "got {f:?}");
    }

    #[test]
    fn finite_timeouts_and_option_variables_are_clean() {
        let f = run_at(
            "crates/serve/src/server.rs",
            "fn f(s: &std::net::TcpStream, t: Option<std::time::Duration>) {\n    s.set_read_timeout(Some(std::time::Duration::from_millis(50))).unwrap();\n    s.set_write_timeout(t).unwrap();\n}\n",
        );
        assert!(f.is_empty(), "got {f:?}");
    }

    #[test]
    fn out_of_scope_crates_ignored_by_default() {
        let src = "fn f() {\n    let s = std::net::TcpStream::connect(\"x:1\");\n    let _ = s;\n}\n";
        let f = run_at("crates/bench/src/bin/chaosbench.rs", src);
        assert!(f.is_empty());
        let file = SourceFile::scan(Path::new("crates/bench/src/bin/chaosbench.rs"), src);
        let mut out = Vec::new();
        NoDeadlineIo::unrestricted().check(&file, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn tests_and_pragmas_skipped() {
        let src = "\
fn f() {
    // lint: allow(NO_DEADLINE_IO) -- diagnostic probe; the caller's watchdog bounds it
    let s = std::net::TcpStream::connect(\"x:1\");
    let _ = s;
}
#[cfg(test)]
mod tests {
    fn t() {
        let s = std::net::TcpStream::connect(\"x:1\");
        let _ = s;
    }
}
";
        let file = SourceFile::scan(Path::new("crates/serve/src/client.rs"), src);
        let passes: Vec<Box<dyn LintPass>> = vec![Box::new(NoDeadlineIo::default())];
        let a = crate::analyze_file(&file, &passes);
        assert!(a.findings.is_empty(), "got {:?}", a.findings);
        assert_eq!(a.suppressed, 1);
    }
}
