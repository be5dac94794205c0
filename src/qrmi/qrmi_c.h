/* QRMI C ABI — the flat interface the real QRMI exposes to SDKs written in
 * other languages (the reference implementation is Rust with C bindings;
 * paper ref [23]). Wraps qcenv::qrmi::Qrmi instances registered in a
 * ResourceRegistry.
 *
 * Conventions:
 *  - All functions return QRMI_OK (0) or a negative error code.
 *  - Strings returned through out-parameters are heap-allocated; free them
 *    with qrmi_string_free.
 *  - Handles are opaque; release with qrmi_close.
 */
#ifndef QCENV_QRMI_C_H_
#define QCENV_QRMI_C_H_

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct qrmi_handle qrmi_handle;

enum {
  QRMI_OK = 0,
  QRMI_ERR_NOT_FOUND = -1,
  QRMI_ERR_INVALID = -2,
  QRMI_ERR_UNAVAILABLE = -3,
  QRMI_ERR_PERMISSION = -4,
  QRMI_ERR_INTERNAL = -5,
  QRMI_ERR_CANCELLED = -6,
};

/* Task status values mirrored from qrmi::TaskStatus. */
enum {
  QRMI_TASK_QUEUED = 0,
  QRMI_TASK_RUNNING = 1,
  QRMI_TASK_COMPLETED = 2,
  QRMI_TASK_FAILED = 3,
  QRMI_TASK_CANCELLED = 4,
};

/* Opens a resource by name from the process-wide registry (see
 * qrmi_c_register below). */
int qrmi_open(const char* resource_id, qrmi_handle** out_handle);
void qrmi_close(qrmi_handle* handle);

/* 1 if the resource is reachable, 0 otherwise. */
int qrmi_is_accessible(qrmi_handle* handle, int* out_accessible);

/* Lease management; *out_token must be freed with qrmi_string_free. */
int qrmi_acquire(qrmi_handle* handle, char** out_token);
int qrmi_release(qrmi_handle* handle, const char* token);

/* Starts a task from a serialized payload (JSON, quantum::Payload format).
 * *out_task_id must be freed with qrmi_string_free. */
int qrmi_task_start(qrmi_handle* handle, const char* payload_json,
                    char** out_task_id);
int qrmi_task_status(qrmi_handle* handle, const char* task_id,
                     int* out_status);
/* Serialized Samples JSON; free with qrmi_string_free. A resource may
 * forget a fetched task (local emulators do): later calls for its id then
 * return QRMI_ERR_NOT_FOUND. */
int qrmi_task_result(qrmi_handle* handle, const char* task_id,
                     char** out_samples_json);
int qrmi_task_stop(qrmi_handle* handle, const char* task_id);

/* Current device spec as JSON; free with qrmi_string_free. */
int qrmi_target(qrmi_handle* handle, char** out_spec_json);

void qrmi_string_free(char* text);

#ifdef __cplusplus
}  /* extern "C" */

/* C++ side: installs the registry the C ABI resolves names against. */
namespace qcenv::qrmi {
class ResourceRegistry;
/* The registry must outlive all open handles. Pass nullptr to clear. */
void qrmi_c_register(const ResourceRegistry* registry);
}  // namespace qcenv::qrmi
#endif

#endif  /* QCENV_QRMI_C_H_ */
