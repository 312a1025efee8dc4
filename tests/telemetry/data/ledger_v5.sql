-- A run ledger as schema 5 wrote it (one column per metric): a plain run,
-- a metered + self-profiled + cache-counted run, a run with executor
-- faults and a worst request, and a zero-offered run.
BEGIN TRANSACTION;
CREATE TABLE ledger_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
INSERT INTO "ledger_meta" VALUES('schema_version','5');
CREATE TABLE runs (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    created_utc     TEXT NOT NULL,
    git_sha         TEXT,
    scheme          TEXT NOT NULL,
    model           TEXT NOT NULL,
    trace           TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    duration        REAL NOT NULL,
    slo_seconds     REAL NOT NULL,
    offered         INTEGER NOT NULL,
    completed       INTEGER NOT NULL,
    slo_compliance  REAL NOT NULL,
    violation_rate  REAL NOT NULL,
    p50_seconds     REAL NOT NULL,
    p99_seconds     REAL NOT NULL,
    total_cost      REAL NOT NULL,
    cold_starts     INTEGER NOT NULL,
    n_switches      INTEGER NOT NULL,
    cache_hits      INTEGER NOT NULL DEFAULT 0,
    cache_misses    INTEGER NOT NULL DEFAULT 0,
    extra_json      TEXT NOT NULL DEFAULT '{}',
    wall_seconds    REAL NOT NULL DEFAULT 0,
    top_phase       TEXT,
    top_phase_share REAL NOT NULL DEFAULT 0,
    idle_cost       REAL NOT NULL DEFAULT 0,
    coldstart_cost  REAL NOT NULL DEFAULT 0,
    cost_per_1k_requests REAL NOT NULL DEFAULT 0,
    cell_retries    INTEGER NOT NULL DEFAULT 0,
    cell_timeouts   INTEGER NOT NULL DEFAULT 0,
    worker_crashes  INTEGER NOT NULL DEFAULT 0,
    worst_request_id      INTEGER NOT NULL DEFAULT -1,
    worst_request_latency REAL NOT NULL DEFAULT 0,
    worst_request_phase   TEXT
);
INSERT INTO "runs" VALUES(1,'2026-09-01T10:00:00+00:00','1a2b3c4','paldia','resnet50','azure',0,300.0,0.2,1000,990,0.98,0.02,0.08,0.2,0.05,12,3,0,0,'{}',0.0,NULL,0.0,0.0,0.0,0.05,0,0,0,-1,0.0,NULL);
INSERT INTO "runs" VALUES(2,'2026-09-02T11:30:00+00:00','5d6e7f8','paldia','resnet50','poisson',0,300.0,0.2,68042,68042,0.9809,1.91058463889950333469e-02,0.0815,0.2143,0.2468,208,23,6,2,'{"note": "fixture"}',1.7321,'simulator',0.3187,0.0412,0.0133,3.62717145292613387871e-03,0,0,0,-1,0.0,NULL);
INSERT INTO "runs" VALUES(3,'2026-09-03T12:45:10+00:00','5d6e7f8','paldia','resnet50','poisson',0,300.0,0.2,68042,67980,0.9613,3.86966873401722449843e-02,0.0902,0.2961,0.2519,231,25,0,0,'{}',2.9104,NULL,0.0,0.053,0.0148,3.70212515799065323279e-03,3,1,2,51234,0.7512,'cold_start_wait');
INSERT INTO "runs" VALUES(4,'2026-09-04T08:05:59+00:00',NULL,'paldia','resnet50','azure',3,300.0,0.2,0,0,1.0,0.0,0.0,0.0,0.0,0,0,0,0,'{}',0.0,NULL,0.0,0.0,0.0,0.0,0,0,0,-1,0.0,NULL);
DELETE FROM "sqlite_sequence";
INSERT INTO "sqlite_sequence" VALUES('runs',4);
COMMIT;
