#include "store/snapshot.hpp"

#include <fstream>
#include <sstream>

#include "store/fsio.hpp"

namespace qcenv::store {

using common::Json;
using common::Result;
using common::Status;

JobRecord StoreSnapshot::job(std::size_t index) const {
  JobRecord record = jobs[index];
  if (index < live_samples.size() && live_samples[index] != nullptr) {
    record.samples = live_samples[index]->to_json();
  }
  return record;
}

Json StoreSnapshot::payload_json(const PayloadBody& body) {
  if (const auto* json = std::get_if<Json>(&body)) return *json;
  return std::get<std::shared_ptr<const quantum::Payload>>(body)->to_json();
}

void StoreSnapshot::materialize() {
  for (std::size_t i = 0; i < live_samples.size(); ++i) {
    if (live_samples[i] != nullptr) {
      jobs[i].samples = live_samples[i]->to_json();
    }
  }
  live_samples.clear();
  for (auto& [_, body] : payloads) {
    if (!std::holds_alternative<Json>(body)) body = payload_json(body);
  }
}

Json StoreSnapshot::to_json() const {
  Json out = Json::object();
  out["version"] = kVersion;
  out["jobs_seq"] = jobs_seq;
  out["sessions_seq"] = sessions_seq;
  out["next_job_id"] = next_job_id;
  out["created"] = created;
  Json session_array = Json::array();
  for (const auto& session : sessions) {
    session_array.push_back(session.to_json());
  }
  out["sessions"] = std::move(session_array);
  Json job_array = Json::array();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    job_array.push_back(job(i).to_json());
  }
  out["jobs"] = std::move(job_array);
  if (!payloads.empty()) {
    Json table = Json::object();
    for (const auto& [key, body] : payloads) table[key] = payload_json(body);
    out["payloads"] = std::move(table);
  }
  if (!usage.empty()) {
    Json usage_array = Json::array();
    for (const auto& record : usage) usage_array.push_back(record.to_json());
    out["usage"] = std::move(usage_array);
  }
  return out;
}

Result<StoreSnapshot> StoreSnapshot::from_json(const Json& json) {
  if (!json.is_object()) {
    return common::err::protocol("snapshot must be a JSON object");
  }
  auto version = json.get_string("version");
  if (!version.ok()) return version.error();
  if (version.value() != kVersion) {
    return common::err::protocol("unsupported snapshot version '" +
                                 version.value() + "' (expected " +
                                 kVersion + ")");
  }
  StoreSnapshot snapshot;
  auto jobs_seq = json.get_int("jobs_seq");
  if (!jobs_seq.ok()) return jobs_seq.error();
  snapshot.jobs_seq = static_cast<std::uint64_t>(jobs_seq.value());
  auto sessions_seq = json.get_int("sessions_seq");
  if (!sessions_seq.ok()) return sessions_seq.error();
  snapshot.sessions_seq = static_cast<std::uint64_t>(sessions_seq.value());
  auto next_job_id = json.get_int("next_job_id");
  if (!next_job_id.ok()) return next_job_id.error();
  snapshot.next_job_id = static_cast<std::uint64_t>(next_job_id.value());
  const Json& created = json.at_or_null("created");
  snapshot.created = created.is_number() ? created.as_int() : 0;
  const Json& sessions = json.at_or_null("sessions");
  if (sessions.is_array()) {
    for (const auto& item : sessions.as_array()) {
      auto session = SessionRecord::from_json(item);
      if (!session.ok()) return session.error();
      snapshot.sessions.push_back(std::move(session).value());
    }
  }
  const Json& jobs = json.at_or_null("jobs");
  if (jobs.is_array()) {
    for (const auto& item : jobs.as_array()) {
      auto job = JobRecord::from_json(item);
      if (!job.ok()) return job.error();
      snapshot.jobs.push_back(std::move(job).value());
    }
  }
  const Json& payloads = json.at_or_null("payloads");
  if (payloads.is_object()) {
    for (const auto& [key, body] : payloads.as_object()) {
      snapshot.payloads[key] = body;
    }
  }
  // Absent in pre-accounting snapshots: tolerate, usage starts empty.
  const Json& usage = json.at_or_null("usage");
  if (usage.is_array()) {
    for (const auto& item : usage.as_array()) {
      auto record = UsageRecord::from_json(item);
      if (!record.ok()) return record.error();
      snapshot.usage.push_back(std::move(record).value());
    }
  }
  return snapshot;
}

Status StoreSnapshot::write_atomic(const std::string& path) const {
  // The same bytes as to_json().dump(), produced one record at a time:
  // top-level keys in the std::map order that dump() emits.
  AtomicFileWriter file(path);
  std::string& out = file.buffer();
  const auto key = [&](const char* name, bool first = false) {
    if (!first) out += ',';
    Json(name).dump_to(out);
    out += ':';
  };
  const auto array = [&](const char* name, std::size_t size,
                         const auto& element) {
    key(name);
    out += '[';
    for (std::size_t i = 0; i < size; ++i) {
      if (i > 0) out += ',';
      element(i).dump_to(out);
      file.drain();
    }
    out += ']';
  };
  out += '{';
  key("created", /*first=*/true);
  Json(created).dump_to(out);
  array("jobs", jobs.size(),
        [&](std::size_t i) { return job(i).to_json(); });
  key("jobs_seq");
  Json(jobs_seq).dump_to(out);
  key("next_job_id");
  Json(next_job_id).dump_to(out);
  if (!payloads.empty()) {
    key("payloads");
    out += '{';
    bool first = true;
    for (const auto& [name, body] : payloads) {
      if (!first) out += ',';
      first = false;
      Json(name).dump_to(out);
      out += ':';
      payload_json(body).dump_to(out);
      file.drain();
    }
    out += '}';
  }
  array("sessions", sessions.size(),
        [&](std::size_t i) { return sessions[i].to_json(); });
  key("sessions_seq");
  Json(sessions_seq).dump_to(out);
  if (!usage.empty()) {
    array("usage", usage.size(),
          [&](std::size_t i) { return usage[i].to_json(); });
  }
  key("version");
  Json(kVersion).dump_to(out);
  out += '}';
  return file.commit();
}

Result<std::optional<StoreSnapshot>> StoreSnapshot::load(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return std::optional<StoreSnapshot>();
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Json::parse(buffer.str());
  if (!parsed.ok()) {
    return common::err::protocol("corrupt snapshot '" + path +
                                 "': " + parsed.error().message());
  }
  auto snapshot = StoreSnapshot::from_json(parsed.value());
  if (!snapshot.ok()) return snapshot.error();
  return std::optional<StoreSnapshot>(std::move(snapshot).value());
}

}  // namespace qcenv::store
