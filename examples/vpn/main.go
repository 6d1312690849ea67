// Example: the Section 6.3 VPN isolation.  Two network stacks with distinct
// taint categories keep the corporate network and the Internet apart; only
// the VPN client, which owns both categories, can carry (encrypted) traffic
// between them, and a browser that has touched the Internet cannot reach the
// tunnel at all.
package main

import (
	"fmt"
	"log"

	"histar/internal/kernel"
	"histar/internal/netd"
	"histar/internal/unixlib"
	"histar/internal/vpn"
)

func main() {
	log.SetFlags(0)
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 12}})
	if err != nil {
		log.Fatal(err)
	}
	inet, err := netd.New(sys, netd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	corp, err := netd.New(sys, netd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	clientProc, _ := sys.NewInitProcess("")
	if err := vpn.GrantTaintOwnership(sys, inet, corp, clientProc); err != nil {
		log.Fatal(err)
	}
	client, err := vpn.NewClient(clientProc, inet, corp, "hq-vpn:1194", "preshared-key")
	if err != nil {
		log.Fatal(err)
	}
	inet.RegisterRemote("hq-vpn:1194", func(req []byte) []byte {
		plain, err := client.Decrypt(req)
		if err != nil {
			return client.Encrypt([]byte("bad crypto"))
		}
		return client.Encrypt(append([]byte("intranet answer for: "), plain...))
	})
	inet.RegisterRemote("news.example:80", func([]byte) []byte { return []byte("public news") })

	employee, _ := sys.NewInitProcess("employee")
	resp, err := client.SendOverTunnel(employee, []byte("GET /payroll"))
	fmt.Printf("employee via tunnel: %q (err=%v)\n", resp, err)

	browser, _ := sys.NewInitProcess("browser")
	s, err := netd.Dial(inet, browser, "news.example:80")
	if err != nil {
		log.Fatal(err)
	}
	s.Send(nil)
	page, _ := s.Recv(64)
	fmt.Printf("browser read from the Internet: %q — it is now i-tainted\n", page)
	if _, err := client.SendOverTunnel(browser, []byte("GET /payroll")); err != nil {
		fmt.Println("browser refused at the tunnel:", err)
	}
}
