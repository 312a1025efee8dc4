"""Serverless framework plumbing: requests, SLOs, batching, orchestration."""
