//! Fixture: snapshot-clock. Fed to the analyzer under a fetch-policy or
//! selector path; never compiled. A comment reading `snapshot.cycle` is
//! stripped before matching, so this header is not a violation.

impl FetchPolicy for ClockPolicy {
    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        let now = snapshot.cycle; // line 7: clock read
        let SmtSnapshot { cycle, .. } = snapshot; // line 8: destructured clock
        let age = now - snapshot.threads[0].oldest_lll_cycle.unwrap_or(0); // line 9: legal
        let total = self.stats.cycles; // line 10: `.cycles` is not the snapshot clock
        let rounds = self.order.iter().cycle(); // line 11: iterator method, legal
        let start = self.cycle_start; // line 12: `.cycle_*` field, legal
        if snapshot.cycle > self.deadline { // line 13: clock read
            priority.clear();
        }
    }

    fn sanctioned(&mut self, snapshot: &SmtSnapshot) {
        // analyze: allow(snapshot-clock) reason="fixture: sanctioned clock read"
        self.last = snapshot.cycle; // line 20: suppressed by the allow above
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_read_the_clock() {
        let snapshot = SmtSnapshot::new(1);
        assert_eq!(snapshot.cycle, 0);
    }
}
