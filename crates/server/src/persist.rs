//! Boot-time WAL replay: reconstruct every live session from its logged lifecycle.
//!
//! The learners are deterministic functions of (corpus, model, parameters, answer stream):
//! the corpus is a named recipe (or its snapshot), the parameters include the seed, and only
//! *accepted* answers are logged. Replay therefore re-runs the exact factory the original
//! `START` used ([`crate::server::build_learner`]) and feeds it the same answers in order —
//! `propose` each pending question (idempotent while unanswered), then `answer` — landing on
//! byte-identical learner state. The crash-recovery proptest below pins that: transcripts
//! continued after a simulated crash match uninterrupted ones byte for byte.
//!
//! Replay is strict: a record referencing an unknown session, corpus or model, or an answer
//! the rebuilt learner refuses, is a corrupt-log *startup error*, never a silently dropped
//! session.

use std::collections::BTreeMap;

use qbe_core::store::WalRecord;

use crate::corpus::{CorpusError, CorpusStore};
use crate::protocol::Model;
use crate::registry::SessionRegistry;
use crate::server::build_learner;

/// Accumulated lifecycle of one session while folding the log.
struct Draft {
    corpus: String,
    model: String,
    params: Vec<(String, String)>,
    answers: Vec<bool>,
    closed: bool,
}

/// Fold a recovered WAL into the registry: rebuild every session that was started and never
/// closed, under its original id. Returns how many sessions were reconstructed.
pub(crate) fn replay(
    records: &[WalRecord],
    store: &CorpusStore,
    registry: &SessionRegistry,
) -> Result<u64, String> {
    let mut drafts: BTreeMap<u64, Draft> = BTreeMap::new();
    for (i, record) in records.iter().enumerate() {
        match record {
            WalRecord::Start {
                session,
                corpus,
                model,
                params,
            } => {
                // A reused id (possible only through log corruption undetected by the
                // checksums) would shadow the earlier session; reject it loudly instead.
                if drafts.contains_key(session) {
                    return Err(format!("record {i}: duplicate START for session {session}"));
                }
                drafts.insert(
                    *session,
                    Draft {
                        corpus: corpus.clone(),
                        model: model.clone(),
                        params: params.clone(),
                        answers: Vec::new(),
                        closed: false,
                    },
                );
            }
            WalRecord::Answer { session, positive } => match drafts.get_mut(session) {
                Some(draft) if !draft.closed => draft.answers.push(*positive),
                Some(_) => {
                    return Err(format!("record {i}: ANSWER for closed session {session}"));
                }
                None => {
                    return Err(format!("record {i}: ANSWER for unknown session {session}"));
                }
            },
            WalRecord::Close { session } => match drafts.get_mut(session) {
                Some(draft) if !draft.closed => draft.closed = true,
                Some(_) => {
                    return Err(format!("record {i}: duplicate CLOSE for session {session}"));
                }
                None => {
                    return Err(format!("record {i}: CLOSE for unknown session {session}"));
                }
            },
        }
    }

    let mut recovered = 0u64;
    for (id, draft) in &drafts {
        if draft.closed {
            continue;
        }
        let corpus = store.get_or_load(&draft.corpus).map_err(|e| match e {
            CorpusError::Unknown => {
                format!("session {id} references unknown corpus {:?}", draft.corpus)
            }
            CorpusError::Load(why) => format!("session {id}: {why}"),
        })?;
        let model = Model::parse(&draft.model)
            .ok_or_else(|| format!("session {id} references unknown model {:?}", draft.model))?;
        let mut learner = build_learner(&corpus, model, &draft.params)
            .map_err(|why| format!("session {id} cannot be rebuilt: {why}"))?;
        for (n, positive) in draft.answers.iter().enumerate() {
            // Advance to the pending question the original session answered, without
            // rendering it; only accepted answers were logged, so a refusal here means the log
            // and the factory disagree.
            if !learner.propose_pending() {
                return Err(format!(
                    "session {id}: log holds {} answers but the learner finished after {n}",
                    draft.answers.len()
                ));
            }
            learner
                .answer(*positive)
                .map_err(|e| format!("session {id}: replaying answer {n} failed: {e}"))?;
        }
        registry.open_with_id(*id, learner);
        recovered += 1;
    }
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(session: u64, model: &str, seed: u64) -> WalRecord {
        WalRecord::Start {
            session,
            corpus: "tiny".to_string(),
            model: model.to_string(),
            params: vec![("seed".to_string(), seed.to_string())],
        }
    }

    #[test]
    fn closed_sessions_are_not_recovered() {
        let store = CorpusStore::new();
        let registry = SessionRegistry::new();
        let records = vec![
            start(1, "twig", 3),
            WalRecord::Answer {
                session: 1,
                positive: true,
            },
            start(2, "join", 0),
            WalRecord::Close { session: 1 },
        ];
        let n = replay(&records, &store, &registry).unwrap();
        assert_eq!(n, 1, "only the still-open session comes back");
        assert_eq!(registry.active(), 1);
        assert_eq!(registry.with_session(2, |l| l.kind()), Some("join"));
        assert_eq!(registry.with_session(1, |l| l.kind()), None);
    }

    #[test]
    fn recovered_answers_are_applied() {
        let store = CorpusStore::new();
        let registry = SessionRegistry::new();
        let records = vec![
            start(5, "twig", 9),
            WalRecord::Answer {
                session: 5,
                positive: true,
            },
            WalRecord::Answer {
                session: 5,
                positive: false,
            },
        ];
        replay(&records, &store, &registry).unwrap();
        assert_eq!(registry.with_session(5, |l| l.questions()), Some(2));
    }

    #[test]
    fn malformed_logs_are_startup_errors() {
        let store = CorpusStore::new();
        let registry = SessionRegistry::new();
        let orphan_answer = vec![WalRecord::Answer {
            session: 9,
            positive: true,
        }];
        assert!(replay(&orphan_answer, &store, &registry)
            .unwrap_err()
            .contains("unknown session 9"));
        let orphan_close = vec![WalRecord::Close { session: 4 }];
        assert!(replay(&orphan_close, &store, &registry)
            .unwrap_err()
            .contains("unknown session 4"));
        let dup_start = vec![start(1, "twig", 0), start(1, "twig", 0)];
        assert!(replay(&dup_start, &store, &registry)
            .unwrap_err()
            .contains("duplicate START"));
        let bad_model = vec![WalRecord::Start {
            session: 1,
            corpus: "tiny".to_string(),
            model: "sparql".to_string(),
            params: vec![],
        }];
        assert!(replay(&bad_model, &store, &registry)
            .unwrap_err()
            .contains("unknown model"));
        let bad_corpus = vec![WalRecord::Start {
            session: 1,
            corpus: "gigantic".to_string(),
            model: "twig".to_string(),
            params: vec![],
        }];
        assert!(replay(&bad_corpus, &store, &registry)
            .unwrap_err()
            .contains("unknown corpus"));
    }
}

/// The crash-recovery differential: random sessions interrupted partway (the `Service` —
/// registry, WAL writer and all — is dropped with no `Close` logged, exactly what `kill -9`
/// leaves behind), recovered from snapshot + WAL by a second service, and continued. Every
/// reply after the resume must be byte-identical to an uninterrupted reference run.
#[cfg(test)]
mod crash_recovery {
    use proptest::prelude::*;
    use std::path::PathBuf;

    use crate::server::{respond, ProtoState, ServerConfig, Service};

    fn temp_dir() -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("qbe-server-crash-{}-{n}", std::process::id()))
    }

    fn reply(service: &Service, state: &mut ProtoState, line: &str) -> String {
        respond(service, state, line).0
    }

    /// Drive up to `rounds` ASK/ANSWER rounds, answering from `answers` (consuming one entry
    /// per question via `next`) and stopping at `+DONE`. Returns every reply verbatim.
    fn run_rounds(
        service: &Service,
        state: &mut ProtoState,
        rounds: usize,
        answers: &[bool],
        next: &mut usize,
    ) -> Vec<String> {
        let mut replies = Vec::new();
        for _ in 0..rounds {
            let ask = reply(service, state, "ASK");
            let is_question = ask.starts_with("+ASK");
            replies.push(ask);
            if !is_question {
                break;
            }
            let positive = answers[*next % answers.len()];
            *next += 1;
            replies.push(reply(
                service,
                state,
                if positive { "ANSWER yes" } else { "ANSWER no" },
            ));
        }
        replies
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn interrupted_sessions_continue_byte_identically(
            model_ix in 0usize..4,
            seed in 0u64..64,
            pre in 0usize..6,
            post in 1usize..6,
            answers in proptest::collection::vec(prop_oneof![Just(true), Just(false)], 16),
        ) {
            let model = ["twig", "path", "join", "graph"][model_ix];
            let start_line = format!("START {model} seed={seed}");
            let dir = temp_dir();
            let persisted = ServerConfig {
                data_dir: Some(dir.clone()),
                persist: true,
                ..ServerConfig::default()
            };

            // Original run: crashes (drops) after `pre` rounds, no QUIT, no Close record.
            let service_a = Service::open(&persisted).expect("fresh WAL opens");
            let mut state_a = ProtoState::new();
            prop_assert!(reply(&service_a, &mut state_a, "CORPUS tiny").starts_with("+OK"));
            prop_assert_eq!(
                reply(&service_a, &mut state_a, &start_line),
                format!("+OK session id=1 model={model}")
            );
            let mut next_a = 0usize;
            let replies_a = run_rounds(&service_a, &mut state_a, pre, &answers, &mut next_a);
            drop(state_a);
            drop(service_a); // the "crash": nothing closed, WAL tail synced on drop

            // Recovery run: boot from snapshot + WAL, RESUME, continue.
            let service_b = Service::open(&persisted).expect("recovery succeeds");
            let mut state_b = ProtoState::new();
            prop_assert_eq!(
                reply(&service_b, &mut state_b, "RESUME 1"),
                format!("+OK session id=1 model={model}")
            );
            let metrics = reply(&service_b, &mut state_b, "METRICS");
            prop_assert!(metrics.contains(" recovered=1"), "{}", metrics);
            let mut next_b = next_a;
            let replies_b = run_rounds(&service_b, &mut state_b, post, &answers, &mut next_b);
            let query_b = reply(&service_b, &mut state_b, "QUERY");
            let eval_b = reply(&service_b, &mut state_b, "EVAL");

            // Reference run: same corpus data (same snapshot), never interrupted.
            let reference_config = ServerConfig {
                data_dir: Some(dir.clone()),
                persist: false,
                ..ServerConfig::default()
            };
            let service_r = Service::open(&reference_config).expect("reference opens");
            let mut state_r = ProtoState::new();
            reply(&service_r, &mut state_r, "CORPUS tiny");
            reply(&service_r, &mut state_r, &start_line);
            let mut next_r = 0usize;
            let replies_r1 = run_rounds(&service_r, &mut state_r, pre, &answers, &mut next_r);
            let replies_r2 = run_rounds(&service_r, &mut state_r, post, &answers, &mut next_r);
            let query_r = reply(&service_r, &mut state_r, "QUERY");
            let eval_r = reply(&service_r, &mut state_r, "EVAL");

            prop_assert_eq!(replies_a, replies_r1, "pre-crash transcripts diverge");
            prop_assert_eq!(replies_b, replies_r2, "post-recovery transcripts diverge");
            prop_assert_eq!(next_b, next_r, "answer consumption diverges");
            prop_assert_eq!(query_b, query_r);
            prop_assert_eq!(eval_b, eval_r);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
