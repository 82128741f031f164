//! Standard Workload Format (SWF) import/export.
//!
//! The SWF is the lingua franca of the Parallel Workloads Archive: one job
//! per line, 18 whitespace-separated integer fields, `;` comment header.
//! Exporting lets external tools consume generated workloads; importing lets
//! the simulator replay archive traces.
//!
//! Field mapping (standard fields we populate; unused fields are `-1`):
//!
//! | # | SWF field        | ours                                     |
//! |---|------------------|------------------------------------------|
//! | 1 | job number       | `JobId + 1` (SWF is 1-based)             |
//! | 2 | submit time (s)  | `submit_time` seconds                    |
//! | 4 | run time (s)     | `runtime` seconds                        |
//! | 5 | allocated procs  | `cores`                                  |
//! | 9 | requested time   | `estimate` seconds                       |
//! | 12| user id          | `UserId`                                 |
//! | 13| group id         | `ProjectId`                              |
//! | 15| queue number     | modality index + 1 (extension, documented in header) |
//! | 16| partition number | `site_hint` + 1, or `-1`                 |
//!
//! The mapping is **lossy** for workflow structure, gateway identity, and RC
//! requirements — the SWF has no fields for them. Round-trips preserve the
//! representable subset; tests pin that contract.

use crate::ids::{IdMap, JobId, ProjectId, UserId};
use crate::job::Job;
use crate::modality::Modality;
use tg_des::{SimDuration, SimTime};
use tg_model::SiteId;

/// Serialize jobs to SWF text.
pub fn to_swf(jobs: &[Job]) -> String {
    let mut out = String::with_capacity(jobs.len() * 64 + 256);
    out.push_str("; SWF export from teragrid-sim\n");
    out.push_str("; Queue numbers encode usage modalities:\n");
    for m in Modality::ALL {
        out.push_str(&format!(";   queue {} = {}\n", m.index() + 1, m.name()));
    }
    for j in jobs {
        let partition = j.site_hint.map(|s| s.index() as i64 + 1).unwrap_or(-1);
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 -1 {} {} -1 {} {} -1 -1\n",
            j.id.index() + 1,
            j.submit_time.as_micros() / 1_000_000,
            j.runtime.as_micros() / 1_000_000,
            j.cores,
            j.cores,
            j.estimate.as_micros() / 1_000_000,
            j.user.index(),
            j.project.index(),
            j.true_modality.index() + 1,
            partition,
        ));
    }
    out
}

/// A problem encountered while parsing SWF text.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// Parse SWF text into jobs (the representable subset; see module docs).
///
/// Jobs with non-positive runtime or cores are skipped (archive traces mark
/// cancelled jobs that way). Queue numbers outside the modality range fall
/// back to batch. A job number may appear on one kept line only: a repeat
/// is an error naming both lines, since the simulator keys jobs by it.
pub fn from_swf(text: &str) -> Result<Vec<Job>, SwfError> {
    let mut jobs = Vec::new();
    let mut line_of: IdMap<JobId, usize> = IdMap::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 18 {
            return Err(SwfError {
                line: lineno + 1,
                message: format!("expected 18 fields, got {}", fields.len()),
            });
        }
        let geti = |idx: usize| -> Result<i64, SwfError> {
            fields[idx].parse::<i64>().map_err(|e| SwfError {
                line: lineno + 1,
                message: format!("field {}: {e}", idx + 1),
            })
        };
        let id = geti(0)?;
        let submit = geti(1)?;
        let runtime = geti(3)?;
        let procs = {
            let alloc = geti(4)?;
            if alloc > 0 {
                alloc
            } else {
                geti(7)?
            }
        };
        let estimate = geti(8)?;
        let uid = geti(11)?.max(0);
        let gid = geti(12)?.max(0);
        let queue = geti(14)?;
        let partition = geti(15)?;
        if runtime <= 0 || procs <= 0 || id <= 0 {
            continue; // cancelled/invalid records
        }
        let modality = usize::try_from(queue - 1)
            .ok()
            .and_then(|q| Modality::ALL.get(q).copied())
            .unwrap_or(Modality::BatchComputing);
        let job_id = JobId((id - 1) as usize);
        if let Some(first) = line_of.insert(job_id, lineno + 1) {
            return Err(SwfError {
                line: lineno + 1,
                message: format!("job number {id} repeats the job on line {first}"),
            });
        }
        let mut job = Job::batch(
            job_id,
            UserId(uid as usize),
            ProjectId(gid as usize),
            SimTime::from_secs(submit.max(0) as u64),
            procs as usize,
            SimDuration::from_secs(runtime as u64),
        )
        .labeled(modality);
        if estimate > 0 {
            job = job.with_estimate(SimDuration::from_secs(estimate as u64));
        }
        if partition > 0 {
            job = job.with_site(SiteId((partition - 1) as usize));
        }
        jobs.push(job);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jobs() -> Vec<Job> {
        vec![
            Job::batch(
                JobId(0),
                UserId(3),
                ProjectId(1),
                SimTime::from_secs(100),
                64,
                SimDuration::from_secs(3600),
            )
            .with_estimate(SimDuration::from_secs(7200))
            .with_site(SiteId(2)),
            Job::batch(
                JobId(1),
                UserId(4),
                ProjectId(2),
                SimTime::from_secs(250),
                8,
                SimDuration::from_secs(600),
            )
            .labeled(Modality::Interactive),
        ]
    }

    #[test]
    fn roundtrip_preserves_representable_fields() {
        let jobs = sample_jobs();
        let text = to_swf(&jobs);
        let back = from_swf(&text).unwrap();
        assert_eq!(back.len(), jobs.len());
        for (a, b) in jobs.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.submit_time, b.submit_time);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.cores, b.cores);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.user, b.user);
            assert_eq!(a.project, b.project);
            assert_eq!(a.site_hint, b.site_hint);
            assert_eq!(a.true_modality, b.true_modality);
        }
    }

    #[test]
    fn header_documents_queue_mapping() {
        let text = to_swf(&sample_jobs());
        for m in Modality::ALL {
            assert!(text.contains(&format!("queue {} = {}", m.index() + 1, m.name())));
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "; comment\n\n; another\n";
        assert_eq!(from_swf(text).unwrap().len(), 0);
    }

    #[test]
    fn cancelled_jobs_skipped() {
        // runtime -1 → skipped
        let text = "1 0 -1 -1 4 -1 -1 4 100 -1 -1 0 0 -1 -1 1 -1 -1\n";
        assert_eq!(from_swf(text).unwrap().len(), 0);
    }

    #[test]
    fn short_line_is_an_error() {
        let text = "1 2 3\n";
        let err = from_swf(text).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("18 fields"));
        assert!(err.to_string().contains("SWF line 1"));
    }

    #[test]
    fn repeated_job_number_is_an_error_naming_both_lines() {
        let line = "7 0 -1 60 4 -1 -1 4 100 -1 -1 0 0 -1 1 1 -1 -1\n";
        let text = format!("{line}; comment\n{line}");
        let err = from_swf(&text).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(
            err.to_string(),
            "SWF line 3: job number 7 repeats the job on line 1"
        );
        // A skipped (cancelled) record does not claim its number.
        let cancelled = "7 0 -1 -1 4 -1 -1 4 100 -1 -1 0 0 -1 1 1 -1 -1\n";
        assert_eq!(from_swf(&format!("{cancelled}{line}")).unwrap().len(), 1);
    }

    #[test]
    fn non_numeric_field_is_an_error() {
        let text = "1 0 -1 60 abc -1 -1 4 100 -1 -1 0 0 -1 -1 1 -1 -1\n";
        assert!(from_swf(text).is_err());
    }

    #[test]
    fn unknown_queue_falls_back_to_batch() {
        let text = "1 0 -1 60 4 -1 -1 4 100 -1 -1 0 0 -1 99 1 -1 -1\n";
        let jobs = from_swf(text).unwrap();
        assert_eq!(jobs[0].true_modality, Modality::BatchComputing);
    }

    #[test]
    fn falls_back_to_requested_procs() {
        // allocated = -1, requested = 16.
        let text = "1 0 -1 60 -1 -1 -1 16 100 -1 -1 0 0 -1 1 1 -1 -1\n";
        let jobs = from_swf(text).unwrap();
        assert_eq!(jobs[0].cores, 16);
    }

    #[test]
    fn generated_workload_roundtrips_by_count() {
        use crate::generator::{GeneratorConfig, WorkloadGenerator};
        use tg_des::RngFactory;
        let w = WorkloadGenerator::new(GeneratorConfig::baseline(60, 7, 2))
            .generate(&RngFactory::new(5));
        let text = to_swf(&w.jobs);
        let back = from_swf(&text).unwrap();
        assert_eq!(back.len(), w.jobs.len());
    }
}
