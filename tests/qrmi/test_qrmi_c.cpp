// QRMI C ABI: the flat interface other-language SDKs consume.
#include <gtest/gtest.h>

#include "qrmi/local_emulator.hpp"
#include "qrmi/qrmi_c.h"
#include "qrmi/registry.hpp"
#include "quantum/payload.hpp"

namespace {

using namespace qcenv;

quantum::Payload small_payload() {
  quantum::Sequence seq(quantum::AtomRegister::linear_chain(2, 6.0));
  seq.add_pulse(quantum::Pulse{quantum::Waveform::constant(200, 2.0),
                               quantum::Waveform::constant(200, 0.0), 0.0});
  return quantum::Payload::from_sequence(seq, 25);
}

class QrmiCApi : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.add("emu",
                  qrmi::LocalEmulatorQrmi::create("emu", "sv").value());
    qrmi::qrmi_c_register(&registry_);
  }
  void TearDown() override { qrmi::qrmi_c_register(nullptr); }

  qrmi::ResourceRegistry registry_;
};

TEST_F(QrmiCApi, FullLifecycle) {
  qrmi_handle* handle = nullptr;
  ASSERT_EQ(qrmi_open("emu", &handle), QRMI_OK);
  ASSERT_NE(handle, nullptr);

  int accessible = 0;
  EXPECT_EQ(qrmi_is_accessible(handle, &accessible), QRMI_OK);
  EXPECT_EQ(accessible, 1);

  char* token = nullptr;
  ASSERT_EQ(qrmi_acquire(handle, &token), QRMI_OK);
  ASSERT_NE(token, nullptr);

  char* task_id = nullptr;
  const std::string payload = small_payload().serialize();
  ASSERT_EQ(qrmi_task_start(handle, payload.c_str(), &task_id), QRMI_OK);
  ASSERT_NE(task_id, nullptr);

  int status = -1;
  do {
    ASSERT_EQ(qrmi_task_status(handle, task_id, &status), QRMI_OK);
  } while (status == QRMI_TASK_QUEUED || status == QRMI_TASK_RUNNING);
  EXPECT_EQ(status, QRMI_TASK_COMPLETED);

  char* samples_json = nullptr;
  ASSERT_EQ(qrmi_task_result(handle, task_id, &samples_json), QRMI_OK);
  auto samples = quantum::Samples::from_json(
      common::Json::parse(samples_json).value());
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().total_shots(), 25u);
  // The emulator forgets a task once its result is fetched.
  EXPECT_EQ(qrmi_task_status(handle, task_id, &status), QRMI_ERR_NOT_FOUND);

  char* spec_json = nullptr;
  ASSERT_EQ(qrmi_target(handle, &spec_json), QRMI_OK);
  EXPECT_NE(std::string(spec_json).find("emu-sv"), std::string::npos);

  EXPECT_EQ(qrmi_release(handle, token), QRMI_OK);
  qrmi_string_free(token);
  qrmi_string_free(task_id);
  qrmi_string_free(samples_json);
  qrmi_string_free(spec_json);
  qrmi_close(handle);
}

TEST_F(QrmiCApi, ErrorMapping) {
  qrmi_handle* handle = nullptr;
  EXPECT_EQ(qrmi_open("nope", &handle), QRMI_ERR_NOT_FOUND);
  ASSERT_EQ(qrmi_open("emu", &handle), QRMI_OK);

  char* task_id = nullptr;
  EXPECT_EQ(qrmi_task_start(handle, "not json", &task_id),
            QRMI_ERR_INVALID);
  int status = 0;
  EXPECT_EQ(qrmi_task_status(handle, "local-999", &status),
            QRMI_ERR_NOT_FOUND);
  EXPECT_EQ(qrmi_task_start(nullptr, "x", &task_id), QRMI_ERR_INVALID);
  qrmi_close(handle);
}

TEST_F(QrmiCApi, UnregisteredRegistryIsUnavailable) {
  qrmi::qrmi_c_register(nullptr);
  qrmi_handle* handle = nullptr;
  EXPECT_EQ(qrmi_open("emu", &handle), QRMI_ERR_UNAVAILABLE);
}

}  // namespace
