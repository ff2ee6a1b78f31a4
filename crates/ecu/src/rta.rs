//! Static-priority preemptive response-time analysis for ECU tasks.
//!
//! This is the classic busy-window analysis of Joseph & Pandya
//! (ref. \[4\] of the paper), extended to standard event models and to
//! the OSEK flavour the paper mentions (Sec. 5.2): cooperative tasks,
//! hardware interrupts and kernel overheads.
//!
//! For task `i` and instance `q = 1, 2, …`:
//!
//! ```text
//! w = q·C_i + B_i + Σ_{j outranking i} η⁺_j(w)·(C_j + σ)
//! R_q = w_q − δ⁻_i(q)
//! ```
//!
//! where `B_i` is the largest non-preemptable segment of any
//! lower-ranked task and `σ` the per-preemption kernel overhead.
//! Cooperative tasks are analyzed as if preemptive, which is sound
//! (their non-preemptable segments can only *improve* their own
//! response) while their segments are charged as blocking to
//! higher-ranked tasks.

use crate::task::{OsekOverhead, Task};
use carta_core::analysis::{AnalysisError, ResponseBounds};
use carta_core::time::Time;

/// Configuration of the ECU analysis.
#[derive(Debug, Clone, Copy)]
pub struct EcuAnalysisConfig {
    /// Kernel overheads.
    pub overhead: OsekOverhead,
    /// Busy windows growing beyond this horizon are declared unbounded.
    pub horizon: Time,
    /// Maximum number of instances examined per busy period.
    pub max_instances: u64,
}

impl Default for EcuAnalysisConfig {
    fn default() -> Self {
        EcuAnalysisConfig {
            overhead: OsekOverhead::none(),
            horizon: Time::from_s(10),
            max_instances: 4096,
        }
    }
}

/// Per-task analysis result.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Index of the task in the input order.
    pub index: usize,
    /// Task name.
    pub name: String,
    /// Blocking charged to this task.
    pub blocking: Time,
    /// Response bounds, or `None` on overload.
    pub bounds: Option<ResponseBounds>,
    /// Instances in the longest busy period (0 when overloaded).
    pub instances: u64,
}

impl TaskReport {
    /// Worst-case response time, if bounded.
    pub fn wcrt(&self) -> Option<Time> {
        self.bounds.map(|b| b.worst())
    }
}

/// Result of analyzing a whole ECU.
#[derive(Debug, Clone)]
pub struct EcuReport {
    /// Per-task reports, in input order.
    pub tasks: Vec<TaskReport>,
}

impl EcuReport {
    /// Looks a report up by task name.
    pub fn by_name(&self, name: &str) -> Option<&TaskReport> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// `true` if every task has a bounded response time within its
    /// activation period (implicit deadline).
    pub fn all_bounded(&self) -> bool {
        self.tasks.iter().all(|t| t.bounds.is_some())
    }
}

/// Analyzes all tasks of one ECU.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidModel`] if two tasks share a rank
/// (priorities must be unique within task/ISR class) or the task set is
/// empty. Overload is reported per task, not as an error.
///
/// # Examples
///
/// ```
/// use carta_ecu::prelude::*;
/// use carta_core::time::Time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasks = vec![
///     Task::periodic("ctrl", Priority(2), Time::from_ms(5), Time::from_us(200), Time::from_ms(1)),
///     Task::periodic("comm", Priority(1), Time::from_ms(10), Time::from_us(100), Time::from_ms(2)),
/// ];
/// let report = analyze_ecu(&tasks, &EcuAnalysisConfig::default())?;
/// // comm runs after one ctrl instance: 1 + 2 ms.
/// assert_eq!(report.by_name("comm").unwrap().wcrt(), Some(Time::from_ms(3)));
/// # Ok(())
/// # }
/// ```
pub fn analyze_ecu(tasks: &[Task], config: &EcuAnalysisConfig) -> Result<EcuReport, AnalysisError> {
    if tasks.is_empty() {
        return Err(AnalysisError::InvalidModel("ECU has no tasks".into()));
    }
    for (i, a) in tasks.iter().enumerate() {
        for b in &tasks[i + 1..] {
            if a.rank() == b.rank() {
                return Err(AnalysisError::InvalidModel(format!(
                    "tasks `{}` and `{}` share priority {}",
                    a.name, b.name, a.priority
                )));
            }
        }
    }

    let oh = config.overhead;
    let mut reports = Vec::with_capacity(tasks.len());
    for (i, task) in tasks.iter().enumerate() {
        let hp: Vec<&Task> = tasks.iter().filter(|t| t.outranks(task)).collect();
        let blocking = tasks
            .iter()
            .filter(|t| task.outranks(t))
            .map(|t| t.max_blocking_segment())
            .max()
            .unwrap_or(Time::ZERO);
        let c_eff = oh.effective_wcet(task.c_max);

        let mut bounds = None;
        let mut instances = 0;
        if let Some((wcrt, q)) = task_wcrt(task, &hp, blocking, c_eff, config) {
            let bcrt = task.c_min;
            bounds = Some(ResponseBounds::new(bcrt, wcrt.max(bcrt)));
            instances = q;
        }
        reports.push(TaskReport {
            index: i,
            name: task.name.clone(),
            blocking,
            bounds,
            instances,
        });
    }
    Ok(EcuReport { tasks: reports })
}

pub(crate) fn task_wcrt(
    task: &Task,
    hp: &[&Task],
    blocking: Time,
    c_eff: Time,
    config: &EcuAnalysisConfig,
) -> Option<(Time, u64)> {
    let oh = config.overhead;
    let mut wcrt = Time::ZERO;
    let mut w = Time::ZERO;
    let mut q = 1u64;
    loop {
        w = w.max(blocking + c_eff * q);
        loop {
            let mut demand = blocking + c_eff * q;
            for j in hp {
                let eta = j.activation.eta_plus(w);
                let cost = oh.effective_wcet(j.c_max) + oh.preempt;
                demand = demand.saturating_add(cost.saturating_mul(eta));
            }
            if demand > config.horizon {
                return None;
            }
            if demand <= w {
                break;
            }
            w = demand;
        }
        wcrt = wcrt.max(w.saturating_sub(task.activation.delta_min(q)));
        if w > task.activation.delta_min(q + 1) {
            q += 1;
            if q > config.max_instances {
                return None;
            }
        } else {
            return Some((wcrt, q));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ExecKind, Preemption, Priority};
    use carta_core::event_model::EventModel;

    fn ms(v: u64) -> Time {
        Time::from_ms(v)
    }

    fn task(name: &str, prio: u32, period_ms: u64, wcet_ms: u64) -> Task {
        Task::periodic(name, Priority(prio), ms(period_ms), Time::ZERO, ms(wcet_ms))
    }

    #[test]
    fn textbook_two_task_case() {
        // Classic: T1 (P=5, C=1, high), T2 (P=10, C=2, low).
        let tasks = vec![task("t1", 2, 5, 1), task("t2", 1, 10, 2)];
        let rep = analyze_ecu(&tasks, &EcuAnalysisConfig::default()).expect("valid");
        assert_eq!(rep.by_name("t1").unwrap().wcrt(), Some(ms(1)));
        assert_eq!(rep.by_name("t2").unwrap().wcrt(), Some(ms(3)));
        assert!(rep.all_bounded());
    }

    #[test]
    fn three_task_liu_layland_example() {
        // T1 (2,0.5), T2 (4,1), T3 (8,2): U = 0.75.
        let tasks = vec![
            Task::periodic("t1", Priority(3), ms(2), Time::ZERO, Time::from_us(500)),
            task("t2", 2, 4, 1),
            task("t3", 1, 8, 2),
        ];
        let rep = analyze_ecu(&tasks, &EcuAnalysisConfig::default()).expect("valid");
        // t3: w = 2 + ceil(w/2)*0.5 + ceil(w/4)*1 converges at w = 4.
        assert_eq!(rep.by_name("t3").unwrap().wcrt(), Some(ms(4)));
    }

    #[test]
    fn isr_outranks_high_priority_task() {
        let tasks = vec![
            task("ctrl", 100, 5, 1),
            Task::periodic(
                "timer_isr",
                Priority(1),
                ms(1),
                Time::ZERO,
                Time::from_us(100),
            )
            .as_isr(),
        ];
        let rep = analyze_ecu(&tasks, &EcuAnalysisConfig::default()).expect("valid");
        // ctrl suffers interrupt interference despite its huge priority:
        // w = 1 ms + ceil(w/1ms)*0.1 ms -> 1.2 ms (two ISR hits).
        assert_eq!(
            rep.by_name("ctrl").unwrap().wcrt(),
            Some(Time::from_us(1200))
        );
        assert_eq!(
            rep.by_name("timer_isr").unwrap().wcrt(),
            Some(Time::from_us(100))
        );
    }

    #[test]
    fn cooperative_segment_blocks_higher_priority() {
        let tasks = vec![
            task("hi", 2, 10, 1),
            task("lo", 1, 20, 5).cooperative(ms(2)),
        ];
        let rep = analyze_ecu(&tasks, &EcuAnalysisConfig::default()).expect("valid");
        assert_eq!(rep.by_name("hi").unwrap().blocking, ms(2));
        assert_eq!(rep.by_name("hi").unwrap().wcrt(), Some(ms(3)));
        // And the cooperative task itself is analyzed (as preemptive):
        // 5 ms own + one hi preemption.
        assert_eq!(rep.by_name("lo").unwrap().wcrt(), Some(ms(6)));
    }

    #[test]
    fn osek_overhead_inflates_everything() {
        let ideal = analyze_ecu(
            &[task("t1", 2, 5, 1), task("t2", 1, 10, 2)],
            &EcuAnalysisConfig::default(),
        )
        .expect("valid");
        let costly = analyze_ecu(
            &[task("t1", 2, 5, 1), task("t2", 1, 10, 2)],
            &EcuAnalysisConfig {
                overhead: OsekOverhead {
                    activate: Time::from_us(50),
                    terminate: Time::from_us(20),
                    preempt: Time::from_us(30),
                },
                ..EcuAnalysisConfig::default()
            },
        )
        .expect("valid");
        assert!(costly.by_name("t2").unwrap().wcrt() > ideal.by_name("t2").unwrap().wcrt());
        // t2 = 70 us overhead + 2 ms own + (1 ms + 100 us) interference.
        assert_eq!(
            costly.by_name("t2").unwrap().wcrt(),
            Some(Time::from_us(2000 + 70 + 1000 + 70 + 30))
        );
    }

    #[test]
    fn jittery_activation_multiple_instances() {
        // Jitter beyond the period: two activations can coincide.
        let t = task("t", 1, 5, 2).with_activation(EventModel::periodic_with_jitter(ms(5), ms(6)));
        let rep = analyze_ecu(&[t], &EcuAnalysisConfig::default()).expect("valid");
        let r = rep.by_name("t").unwrap();
        assert!(r.instances >= 2);
        assert!(r.wcrt().expect("bounded") >= ms(4));
    }

    #[test]
    fn overload_is_per_task() {
        let tasks = vec![task("hog", 2, 2, 3), task("starved", 1, 100, 1)];
        let rep = analyze_ecu(&tasks, &EcuAnalysisConfig::default()).expect("valid");
        assert!(rep.by_name("hog").unwrap().bounds.is_none());
        assert!(rep.by_name("starved").unwrap().bounds.is_none());
        assert!(!rep.all_bounded());
    }

    #[test]
    fn duplicate_priorities_rejected() {
        let tasks = vec![task("a", 1, 5, 1), task("b", 1, 10, 1)];
        assert!(matches!(
            analyze_ecu(&tasks, &EcuAnalysisConfig::default()),
            Err(AnalysisError::InvalidModel(_))
        ));
        // Same numeric priority is fine across the task/ISR divide.
        let mixed = vec![task("a", 1, 5, 1), task("b", 1, 10, 1).as_isr()];
        assert!(analyze_ecu(&mixed, &EcuAnalysisConfig::default()).is_ok());
        assert!(matches!(
            analyze_ecu(&[], &EcuAnalysisConfig::default()),
            Err(AnalysisError::InvalidModel(_))
        ));
    }

    #[test]
    fn preemption_kinds_exposed() {
        let t = task("a", 1, 5, 1);
        assert_eq!(t.preemption, Preemption::Preemptive);
        assert_eq!(t.kind, ExecKind::Task);
    }
}
